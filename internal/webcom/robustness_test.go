package webcom

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/faultnet"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

// newMasterFixture builds a master (not yet listening) whose policy
// trusts the listed client names, plus the keystore to mint their keys.
func newMasterFixture(tb testing.TB, trustedClients ...string) (*Master, *keys.KeyStore) {
	tb.Helper()
	ks := keys.NewKeyStore()
	mk := keys.Deterministic("Kmaster", "webcom-test")
	ks.Add(mk)
	var policy []*keynote.Assertion
	for _, name := range trustedClients {
		ck := keys.Deterministic("K"+name, "webcom-test")
		ks.Add(ck)
		policy = append(policy, keynote.MustNew(
			"POLICY", fmt.Sprintf("%q", ck.PublicID()), `app_domain=="WebCom";`))
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		tb.Fatal(err)
	}
	return NewMaster(mk, chk, nil, ks), ks
}

// trustingClient builds a client that trusts this fixture's master for
// every WebCom op and executes ops from local.
func trustingClient(tb testing.TB, ks *keys.KeyStore, name string, local map[string]func([]string) (string, error)) *Client {
	tb.Helper()
	ck, err := ks.ByName("K" + name)
	if err != nil {
		ck = keys.Deterministic("K"+name, "webcom-test")
		ks.Add(ck)
	}
	mk, _ := ks.ByName("Kmaster")
	chk, err := keynote.NewChecker([]*keynote.Assertion{
		keynote.MustNew("POLICY", fmt.Sprintf("%q", mk.PublicID()), `app_domain=="WebCom";`),
	}, keynote.WithResolver(ks))
	if err != nil {
		tb.Fatal(err)
	}
	return &Client{Name: name, Key: ck, Checker: chk, Local: local}
}

// sameClientSet compares a client-name snapshot against the expected
// names as a set: connection snapshots taken during reconnect churn have
// no meaningful order, so asserting on one is flaky by construction.
func sameClientSet(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	set := make(map[string]int, len(got))
	for _, n := range got {
		set[n]++
	}
	for _, n := range want {
		if set[n] == 0 {
			return false
		}
		set[n]--
	}
	return true
}

// runOpaque pushes one opaque op through the master's executor.
func runOpaque(ctx context.Context, m *Master, op string, args ...string) (string, error) {
	exec := m.Executor()
	return exec(ctx, cg.Task{OpName: op, Args: args}, &cg.Opaque{OpName: op, OpArity: len(args)})
}

// flakyListener fails Accept while failing is set and counts every call,
// so a test can prove the accept loop backs off instead of spinning.
type flakyListener struct {
	net.Listener
	mu      sync.Mutex
	failing bool
	calls   int
}

func (f *flakyListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	f.calls++
	failing := f.failing
	f.mu.Unlock()
	if failing {
		return nil, errors.New("transient accept failure")
	}
	return f.Listener.Accept()
}

func (f *flakyListener) setFailing(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

func (f *flakyListener) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func TestAcceptLoopBacksOffOnTransientErrors(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, failing: true}
	m.Serve(fl)
	t.Cleanup(func() { m.Close() })

	// A hot spin would rack up millions of Accept calls in 250ms; the
	// 5ms-doubling backoff allows only a handful.
	time.Sleep(250 * time.Millisecond)
	if n := fl.callCount(); n > 25 {
		t.Fatalf("accept loop spinning: %d Accept calls in 250ms", n)
	}

	// After the fault clears, clients connect normally.
	fl.setFailing(false)
	cl := trustingClient(t, ks, "X", map[string]func([]string) (string, error){"echo": echoOp})
	if err := cl.Connect(m.Addr()); err != nil {
		t.Fatalf("connect after fault cleared: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, m, 1)
}

func TestReconnectSupersedesStaleConnection(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	cl1 := trustingClient(t, ks, "X", map[string]func([]string) (string, error){
		"who": func([]string) (string, error) { return "one", nil },
	})
	if err := cl1.Connect(m.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl1.Close() })
	waitClients(t, m, 1)

	// The same principal reconnects (e.g. after a silent partition the
	// master has not yet noticed). It must be admitted immediately.
	cl2 := trustingClient(t, ks, "X", map[string]func([]string) (string, error){
		"who": func([]string) (string, error) { return "two", nil },
	})
	if err := cl2.Connect(m.Addr()); err != nil {
		t.Fatalf("reconnect of same principal rejected: %v", err)
	}
	t.Cleanup(func() { cl2.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := runOpaque(ctx, m, "who")
	if err != nil {
		t.Fatal(err)
	}
	if got != "two" {
		t.Fatalf("task ran on the stale connection: got %q, want %q", got, "two")
	}
	if names := m.Clients(); !sameClientSet(names, "X") {
		t.Fatalf("clients = %v, want {X}", names)
	}
	// The superseded connection was closed, so the first client's serve
	// loop must terminate.
	done := make(chan struct{})
	go func() { cl1.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("superseded client still serving after 5s")
	}
}

func TestHandshakeDeadlineUnblocksSilentConnection(t *testing.T) {
	leakCheck(t)
	m, _ := newMasterFixture(t, "X")
	m.Live = Liveness{HandshakeTimeout: 100 * time.Millisecond}
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	// Connect, read the challenge, then go silent: the master must drop
	// us at the handshake deadline rather than pin handleClient forever.
	raw, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	start := time.Now()
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	if _, err := raw.Read(buf); err != nil { // challenge
		t.Fatalf("no challenge: %v", err)
	}
	// Silence. The next read should see the master close the connection.
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("master kept a silent handshake open")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("silent handshake lingered %v", elapsed)
	}
	if n := len(m.Clients()); n != 0 {
		t.Fatalf("silent connection admitted: %d clients", n)
	}
}

func TestClientHandshakeDeadlineOnSilentMaster(t *testing.T) {
	leakCheck(t)
	// A listener that accepts and never speaks: an accepted-but-silent
	// master must not hang Connect.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	_, ks := newMasterFixture(t, "X")
	cl := trustingClient(t, ks, "X", nil)
	cl.Live = Liveness{HandshakeTimeout: 100 * time.Millisecond}
	start := time.Now()
	if err := cl.Connect(ln.Addr().String()); err == nil {
		t.Fatal("Connect succeeded against a silent master")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Connect hung %v against a silent master", elapsed)
	}
	cl.Close()
}

// TestClientCloseDuringHandshake: a Close that lands while a handshake
// is in flight, as it can during a reconnect, must win. The connection
// that handshake produces never goes live, so no serve loop outlives
// the closed client.
func TestClientCloseDuringHandshake(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	cl := trustingClient(t, ks, "X", nil)
	cl.Dial = func(addr string) (net.Conn, error) {
		cl.Close()
		return net.Dial("tcp", addr)
	}
	if err := cl.Connect(m.Addr()); err == nil {
		t.Fatal("a client closed mid-handshake came online")
	}
}

func TestHeartbeatDetectsPartitionAndReconnects(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	m.Live = fastLive()
	m.Retry = fastRetry()
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	// A healthy injector (no fault probabilities) gives us a handle to
	// cut the cable on demand.
	inj := faultnet.New(faultnet.Config{Seed: 1})
	var mu sync.Mutex
	var conns []*faultnet.Conn
	cl := trustingClient(t, ks, "X", map[string]func([]string) (string, error){"echo": echoOp})
	cl.Live = fastLive()
	cl.Reconnect = ReconnectPolicy{Enabled: true, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	cl.Dial = func(addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := inj.Conn(raw)
		mu.Lock()
		conns = append(conns, fc)
		mu.Unlock()
		return fc, nil
	}
	if err := cl.Connect(m.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, m, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if got, err := runOpaque(ctx, m, "echo", "a"); err != nil || got != "a" {
		t.Fatalf("pre-partition task: %q, %v", got, err)
	}

	// Cut the cable: both directions silently swallowed from here on.
	// Only heartbeats can notice; TCP keeps reporting success.
	mu.Lock()
	conns[0].ForcePartition()
	mu.Unlock()

	// The master must declare the client dead, the client must notice the
	// silent master, redial, re-run the mutual handshake, and the whole
	// system must recover without intervention.
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		dials := len(conns)
		mu.Unlock()
		if dials >= 2 && sameClientSet(m.Clients(), "X") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconnect after partition: %d dials, clients %v", dials, m.Clients())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got, err := runOpaque(ctx, m, "echo", "b"); err != nil || got != "b" {
		t.Fatalf("post-reconnect task: %q, %v", got, err)
	}
}

func TestCircuitBreakerQuarantinesFailingClient(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	m.Retry = RetryPolicy{
		MaxAttempts:      4,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		DispatchTimeout:  80 * time.Millisecond,
		FailureThreshold: 1,
		Quarantine:       10 * time.Minute, // never readmitted within this test
		MaxInFlight:      4,
	}
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	var hits atomic.Int64
	unblock := make(chan struct{})
	cl := trustingClient(t, ks, "X", map[string]func([]string) (string, error){
		"slow": func([]string) (string, error) {
			hits.Add(1)
			<-unblock
			return "late", nil
		},
	})
	if err := cl.Connect(m.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { close(unblock) })
	waitClients(t, m, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := runOpaque(ctx, m, "slow"); err == nil {
		t.Fatal("stalled dispatch reported success")
	}
	// The first attempt timed out and opened the breaker; the remaining
	// attempts must be blocked by quarantine, never reaching the client.
	if n := hits.Load(); n != 1 {
		t.Fatalf("quarantined client was dispatched %d times, want 1", n)
	}
}

func TestCircuitBreakerProbesAndReadmits(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	m.Retry = RetryPolicy{
		MaxAttempts:      2,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		DispatchTimeout:  50 * time.Millisecond,
		FailureThreshold: 1,
		Quarantine:       100 * time.Millisecond,
		MaxInFlight:      4,
	}
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	var broken atomic.Bool
	broken.Store(true)
	cl := trustingClient(t, ks, "X", map[string]func([]string) (string, error){
		"flaky": func([]string) (string, error) {
			if broken.Load() {
				time.Sleep(300 * time.Millisecond) // exceeds DispatchTimeout
			}
			return "ok", nil
		},
	})
	if err := cl.Connect(m.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, m, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := runOpaque(ctx, m, "flaky"); err == nil {
		t.Fatal("broken client reported success")
	}

	// The client recovers; after the quarantine elapses the breaker lets
	// one probe through, and its success readmits the client.
	broken.Store(false)
	time.Sleep(150 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if got, err := runOpaque(ctx, m, "flaky"); err != nil || got != "ok" {
			t.Fatalf("recovered client not readmitted (task %d): %q, %v", i, got, err)
		}
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	leakCheck(t)
	m, ks := newMasterFixture(t, "X")
	m.Retry = RetryPolicy{MaxInFlight: 2, DispatchTimeout: 10 * time.Second}
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	var cur, max atomic.Int64
	cl := trustingClient(t, ks, "X", map[string]func([]string) (string, error){
		"gauge": func([]string) (string, error) {
			n := cur.Add(1)
			for {
				old := max.Load()
				if n <= old || max.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(50 * time.Millisecond)
			cur.Add(-1)
			return "done", nil
		},
	})
	if err := cl.Connect(m.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, m, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = runOpaque(ctx, m, "gauge")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if got := max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent dispatches, in-flight bound is 2", got)
	}
}

func TestDenialNeverRetried(t *testing.T) {
	// Healthy network, instrumented: count every schedule frame carrying
	// the denied op. A denial is a policy decision — exactly one schedule
	// frame may ever exist, no matter how generous the retry budget is.
	// The wire matcher is codec-specific: JSON frames carry the op as
	// `"op":"forbidden"`; binary frames carry the raw string once (the
	// result frames naming it flow in the other direction), so counting
	// occurrences of the bare bytes in master->client writes is exact.
	t.Run("json", func(t *testing.T) {
		leakCheck(t)
		var scheduleFrames atomic.Int64
		cfg := faultnet.Config{Seed: 1, Observe: func(dir faultnet.Direction, b []byte) {
			if dir == faultnet.Write {
				scheduleFrames.Add(int64(bytes.Count(b, []byte(`"op":"forbidden"`))))
			}
		}}
		env := newChaosEnvCodec(t, cfg, 2, fastRetry(), fastLive(), CodecJSON)
		denialNeverRetried(t, env, &scheduleFrames)
	})
	t.Run("binary", func(t *testing.T) {
		leakCheck(t)
		var scheduleFrames atomic.Int64
		cfg := faultnet.Config{Seed: 1, Observe: func(dir faultnet.Direction, b []byte) {
			if dir == faultnet.Write {
				scheduleFrames.Add(int64(bytes.Count(b, []byte("forbidden"))))
			}
		}}
		env := newChaosEnvCodec(t, cfg, 2, fastRetry(), fastLive(), CodecAuto)
		denialNeverRetried(t, env, &scheduleFrames)
	})
}

func denialNeverRetried(t *testing.T, env *chaosEnv, scheduleFrames *atomic.Int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := runForbidden(t, env, ctx)
	if err == nil {
		t.Fatal("forbidden op succeeded")
	}
	if !strings.Contains(err.Error(), "denied") {
		t.Fatalf("forbidden op failed for the wrong reason: %v", err)
	}
	if n := scheduleFrames.Load(); n != 1 {
		t.Fatalf("denied op was scheduled %d times, want exactly 1", n)
	}
	if n := env.forbiddenRuns.Load(); n != 0 {
		t.Fatalf("denied op executed %d times", n)
	}
}
