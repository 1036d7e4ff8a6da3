package webcom

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securewebcom/internal/cg"
)

func slowGraph(t *testing.T) *cg.Graph {
	t.Helper()
	g := cg.NewGraph("slow")
	g.MustAddNode("n", &cg.Opaque{OpName: "slow", OpArity: 1})
	if err := g.SetConst("n", 0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("n"); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMasterShutdownDrainsInFlightDispatch: a graceful shutdown started
// while a task is on the wire must let that dispatch finish — the client
// keeps its connection until the result is back — while refusing new
// connections immediately.
func TestMasterShutdownDrainsInFlightDispatch(t *testing.T) {
	env := newTestEnv(t, "X")
	started := make(chan struct{})
	release := make(chan struct{})
	env.attach("X", map[string]func([]string) (string, error){
		"slow": func(args []string) (string, error) {
			close(started)
			<-release
			return "done", nil
		},
	})
	waitClients(t, env.master, 1)

	type runResult struct {
		out string
		err error
	}
	runDone := make(chan runResult, 1)
	go func() {
		out, _, err := env.master.Run(context.Background(), &cg.Engine{}, slowGraph(t), nil)
		runDone <- runResult{out, err}
	}()
	<-started

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- env.master.Shutdown(ctx)
	}()

	// The listener is closed promptly even while the drain waits.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", env.master.Addr(), 200*time.Millisecond)
		if err == nil {
			c.Close()
		}
		if err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned before the in-flight dispatch drained: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	r := <-runDone
	if r.err != nil || r.out != "done" {
		t.Fatalf("in-flight run under shutdown: %q %v", r.out, r.err)
	}
}

// TestMasterShutdownTimeoutSevers: when the drain deadline expires, the
// remaining clients are severed and ctx.Err() reported.
func TestMasterShutdownTimeoutSevers(t *testing.T) {
	env := newTestEnv(t, "X")
	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	env.attach("X", map[string]func([]string) (string, error){
		"slow": func(args []string) (string, error) {
			close(started)
			<-block
			return "late", nil
		},
	})
	waitClients(t, env.master, 1)

	runDone := make(chan error, 1)
	go func() {
		_, _, err := env.master.Run(context.Background(), &cg.Engine{}, slowGraph(t), nil)
		runDone <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := env.master.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired drain reported %v, want DeadlineExceeded", err)
	}
	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("run succeeded although its client was severed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not fail after its client was severed")
	}
}

// TestMasterShutdownDrainsDelegation: a delegated subgraph is an
// admitted request like a dispatched task. A graceful shutdown started
// while one evaluates waits for its result, and the run completes.
func TestMasterShutdownDrainsDelegation(t *testing.T) {
	started := make(chan struct{}, 2) // wing fires two doubles
	release := make(chan struct{})
	local := func(int) map[string]func([]string) (string, error) {
		return map[string]func([]string) (string, error){
			"double": func(args []string) (string, error) {
				started <- struct{}{}
				<-release
				n, err := strconv.Atoi(args[0])
				return strconv.Itoa(2 * n), err
			},
		}
	}
	env := newTwoTierEnv(t, 1, tierOpts{retry: fastRetry(), live: fastLive(), local: local})

	type runResult struct {
		out string
		err error
	}
	runDone := make(chan runResult, 1)
	go func() {
		out, _, err := env.root.Run(context.Background(), &cg.Engine{Library: fedLibrary(t), Workers: 4}, soloGraph(t), nil)
		runDone <- runResult{out, err}
	}()
	<-started

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- env.root.Shutdown(ctx)
	}()
	// Once the master refuses new requests, Shutdown is draining.
	for env.root.srv.Begin() {
		env.root.srv.End()
		runtime.Gosched()
	}
	select {
	case err := <-shutDone:
		t.Fatalf("shutdown returned before the delegation drained: %v", err)
	default:
	}
	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if r := <-runDone; r.err != nil || r.out != "16" {
		t.Fatalf("delegated run under shutdown: %q %v", r.out, r.err)
	}
}

// TestClientCloseWaitsForTask: Close returns only once a task the
// client is executing has finished, so no task runs, or writes its
// result, after Close.
func TestClientCloseWaitsForTask(t *testing.T) {
	env := newTestEnv(t, "X")
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	cl := env.attach("X", map[string]func([]string) (string, error){
		"slow": func(args []string) (string, error) {
			close(started)
			<-release
			finished.Store(true)
			return "done", nil
		},
	})
	waitClients(t, env.master, 1)

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		env.master.Run(ctx, &cg.Engine{}, slowGraph(t), nil)
	}()
	defer func() {
		cancel()
		<-runDone
	}()
	<-started

	closeDone := make(chan struct{})
	go func() {
		cl.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		close(release)
		t.Fatal("Close returned while its task still ran")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-closeDone
	if !finished.Load() {
		t.Fatal("Close returned before its task finished")
	}
}

// TestClientCloseFromAnotherClientsTask: a Local operation of client A
// that closes client B does not run as one of B's tasks, so B's Close
// still waits for the task B is executing.
func TestClientCloseFromAnotherClientsTask(t *testing.T) {
	envA, envB := newTestEnv(t, "A"), newTestEnv(t, "B")
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	clB := envB.attach("B", map[string]func([]string) (string, error){
		"slow": func(args []string) (string, error) {
			close(started)
			<-release
			finished.Store(true)
			return "done", nil
		},
	})
	closing := make(chan struct{})
	closeDone := make(chan struct{})
	envA.attach("A", map[string]func([]string) (string, error){
		"slow": func(args []string) (string, error) {
			close(closing)
			clB.Close()
			close(closeDone)
			return "closed", nil
		},
	})
	waitClients(t, envA.master, 1)
	waitClients(t, envB.master, 1)

	ctx, cancel := context.WithCancel(context.Background())
	var runs sync.WaitGroup
	defer func() {
		cancel()
		runs.Wait()
	}()
	run := func(m *Master) {
		runs.Add(1)
		go func() {
			defer runs.Done()
			m.Run(ctx, &cg.Engine{}, slowGraph(t), nil)
		}()
	}
	run(envB.master)
	<-started
	run(envA.master)
	<-closing

	select {
	case <-closeDone:
		close(release)
		t.Fatal("B's Close, called from A's task, returned while B's task still ran")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-closeDone
	if !finished.Load() {
		t.Fatal("B's Close returned before B's task finished")
	}
}

// TestClientCloseCancelsDelegation: Close cancels the context a
// delegation evaluates under, so a subgraph waiting in context-aware
// work (here the sub-master's scheduler, retrying with no clients of
// its own) ends at once instead of holding Close until DelegateTimeout.
func TestClientCloseCancelsDelegation(t *testing.T) {
	retry := fastRetry()
	retry.MaxAttempts = 1 << 30
	retry.DelegateTimeout = time.Minute
	started := make(chan struct{})
	var once sync.Once
	env := newTwoTierEnv(t, 1, tierOpts{retry: retry, live: fastLive(),
		local: func(int) map[string]func([]string) (string, error) {
			return map[string]func([]string) (string, error){
				"mark": func(args []string) (string, error) {
					once.Do(func() { close(started) })
					return args[0], nil
				},
			}
		}})

	// relay(x) = double(mark(x)): mark runs on the sub-master, double is
	// relayed to the sub-master's own (absent) clients.
	lib := cg.NewLibrary()
	w := cg.NewGraph("relay")
	w.MustAddNode("m", &cg.Opaque{OpName: "mark", OpArity: 1})
	w.MustAddNode("d", &cg.Opaque{OpName: "double", OpArity: 1})
	if err := w.BindInput("x", "m", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Connect("m", "d", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.SetExit("d"); err != nil {
		t.Fatal(err)
	}
	if err := lib.Define(w); err != nil {
		t.Fatal(err)
	}
	g := cg.NewGraph("main")
	g.MustAddNode("r", &cg.Condensed{GraphName: "relay", ArityHint: 1})
	if err := g.SetConst("r", 0, "3"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("r"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		env.root.Run(ctx, &cg.Engine{Library: lib}, g, nil)
	}()
	defer func() {
		cancel()
		<-runDone
	}()
	<-started

	closeDone := make(chan struct{})
	go func() {
		env.subs[0].Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited for a delegation it should have cancelled")
	}
}
