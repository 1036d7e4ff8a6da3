package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/webcom"
)

// graphCase is one WideFixture graph with its analytic result.
type graphCase struct {
	lib   *cg.Library
	g     *cg.Graph
	want  string
	tasks int // opaque nodes one run dispatches
}

type dispatchInputs struct {
	master  *keys.KeyPair
	clients []*keys.KeyPair
	graphs  []graphCase
}

func genDispatch(cfg config) (*dispatchInputs, error) {
	sz := cfg.size
	in := &dispatchInputs{master: keys.Deterministic("Kmaster", fmt.Sprintf("perfbench-master-%d", cfg.seed))}
	for i := 0; i < loaders; i++ {
		in.clients = append(in.clients, keys.Deterministic(fmt.Sprintf("KC%d", i), fmt.Sprintf("perfbench-client-%d", cfg.seed)))
	}
	for i := 0; i < sz.graphs; i++ {
		lib, g, want, err := cg.WideFixture(cg.WideFixtureSpec{
			Subgraphs: sz.cells,
			CellNodes: sz.cellNodes,
			Seed:      cfg.seed*1000 + int64(i),
		})
		if err != nil {
			return nil, err
		}
		in.graphs = append(in.graphs, graphCase{lib: lib, g: g, want: want, tasks: sz.cells * sz.cellNodes})
	}
	return in, nil
}

// engineWorkers is cg.Engine's default Workers, the number of tasks the
// master keeps in flight when run as webcom-master runs it.
const engineWorkers = 4

// addOp is the clients' implementation of the fixture's opaque "add".
func addOp(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("add: want 2 operands, got %d", len(args))
	}
	a, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return "", err
	}
	b, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return "", err
	}
	return strconv.FormatInt(a+b, 10), nil
}

// countingListener counts, while on, the bytes the master reads and
// writes and its write calls, on every connection it accepts.
type countingListener struct {
	net.Listener
	on            atomic.Bool
	bytes, writes atomic.Int64
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.l.on.Load() {
		c.l.bytes.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.l.on.Load() {
		c.l.bytes.Add(int64(n))
		c.l.writes.Add(1)
	}
	return n, err
}

// dispatchSys is a WebCom master with its clients connected over
// loopback TCP, each side trusting the other's key for app_domain
// "WebCom" as webcom-master and webcom-client -trust-master set it up.
type dispatchSys struct {
	master    *webcom.Master
	clients   []*webcom.Client
	counter   *countingListener // nil unless traced
	handshake []float64         // ms per client Connect
}

func startDispatch(in *dispatchInputs, counting bool) (*dispatchSys, error) {
	ks := keys.NewKeyStore()
	ks.Add(in.master)
	var policy []*keynote.Assertion
	for _, ck := range in.clients {
		ks.Add(ck)
		a, err := keynote.New("POLICY", fmt.Sprintf("%q", ck.PublicID()), `app_domain=="WebCom";`)
		if err != nil {
			return nil, err
		}
		policy = append(policy, a)
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		return nil, err
	}
	trust, err := keynote.New("POLICY", fmt.Sprintf("%q", in.master.PublicID()), `app_domain=="WebCom";`)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &dispatchSys{master: webcom.NewMaster(in.master, chk, nil, ks)}
	if counting {
		s.counter = &countingListener{Listener: ln}
		ln = s.counter
	}
	s.master.Serve(ln)
	for i, ck := range in.clients {
		cchk, err := keynote.NewChecker([]*keynote.Assertion{trust}, keynote.WithResolver(ks))
		if err != nil {
			s.close()
			return nil, err
		}
		cl := &webcom.Client{
			Name:    fmt.Sprintf("C%d", i),
			Key:     ck,
			Checker: cchk,
			Local:   map[string]func([]string) (string, error){"add": addOp},
		}
		t0 := time.Now()
		if err := cl.Connect(s.master.Addr()); err != nil {
			s.close()
			return nil, err
		}
		s.handshake = append(s.handshake, float64(time.Since(t0))/1e6)
		s.clients = append(s.clients, cl)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.master.Clients()) < len(in.clients) {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("clients did not register with the master")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

func (s *dispatchSys) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	s.master.Close()
}

// taskRecorder wraps the Executor cg.Engine calls and times every
// dispatched (opaque) task.
type taskRecorder struct {
	lat, done []int64 // latency and completion time from start, ns
	n, errs   atomic.Int64
	start     time.Time
}

// maxTaskRate sizes the recorder: more tasks per second than this are
// counted but not sampled (the report's dropped_samples).
const maxTaskRate = 100_000

func (r *taskRecorder) wrap(exec cg.Executor) cg.Executor {
	return func(ctx context.Context, t cg.Task, op cg.Operator) (string, error) {
		if _, local := op.(*cg.Func); local {
			return exec(ctx, t, op)
		}
		t0 := time.Now()
		out, err := exec(ctx, t, op)
		t1 := time.Now()
		if err != nil {
			r.errs.Add(1)
			return out, err
		}
		if i := r.n.Add(1) - 1; i < int64(len(r.lat)) {
			r.lat[i] = int64(t1.Sub(t0))
			r.done[i] = int64(t1.Sub(r.start))
		}
		return out, err
	}
}

// samples returns the recorded latencies and completion times.
func (r *taskRecorder) samples() (lat, done []int64) {
	n := min(r.n.Load(), int64(len(r.lat)))
	return r.lat[:n], r.done[:n]
}

// drive runs the fixture graphs back to back for dur, checking each
// result against the fixture's analytic value, and returns the task
// recorder and each run's makespan (ns).
func (s *dispatchSys) drive(in *dispatchInputs, dur time.Duration, o *outcome) (*taskRecorder, []int64) {
	size := int(dur.Seconds()*maxTaskRate) + in.graphs[0].tasks
	rec := &taskRecorder{lat: make([]int64, size), done: make([]int64, size), start: time.Now()}
	var runs []int64
	for i := 0; time.Since(rec.start) < dur; i++ {
		gc := &in.graphs[i%len(in.graphs)]
		eng := &cg.Engine{Library: gc.lib, Exec: rec.wrap(s.master.Executor())}
		t0 := time.Now()
		got, _, err := s.master.Run(context.Background(), eng, gc.g, nil)
		runs = append(runs, int64(time.Since(t0)))
		switch {
		case err != nil:
			o.fail("graph error", 1)
		case got != gc.want:
			o.fail("graph result", 1)
		}
	}
	o.attempted += rec.n.Load() + rec.errs.Load()
	o.fail("task error", rec.errs.Load())
	o.report["dropped_samples"] = max(0, rec.n.Load()-int64(len(rec.lat)))
	return rec, runs
}

// setupDispatch starts the master and clients and warms them with one
// run of every fixture graph, repeatedly unless traced, tearing down all
// but the last.
func setupDispatch(sz sizes, in *dispatchInputs, traced bool, o *outcome) (*dispatchSys, error) {
	var times, handshakes []float64
	for {
		t0 := time.Now()
		s, err := startDispatch(in, traced)
		if err != nil {
			return nil, err
		}
		for i := range in.graphs {
			gc := &in.graphs[i]
			got, _, err := s.master.Run(context.Background(), &cg.Engine{Library: gc.lib}, gc.g, nil)
			o.attempted++
			if err != nil || got != gc.want {
				o.fail("warm-up graph", 1)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		handshakes = append(handshakes, s.handshake...)
		if traced || !sz.moreSetups(times) {
			o.metrics["setup_s"] = median(times)
			o.metrics["webcom.handshake_ms"] = median(handshakes)
			o.report["setup_s_samples"] = times
			return s, nil
		}
		s.close()
	}
}

func runDispatch(cfg config, traced bool) (*outcome, error) {
	sz := cfg.size
	o := newOutcome()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	in, err := genDispatch(cfg)
	if err != nil {
		return nil, err
	}
	base := liveHeap()
	s, err := setupDispatch(sz, in, traced, o)
	if err != nil {
		return nil, err
	}
	defer s.close()

	if !traced {
		smp := startSampler(dur)
		rec, _ := s.drive(in, dur, o)
		lat, done := rec.samples()
		phaseMetrics(o, smp, lat, done)
		rec = nil
		o.metrics["live_heap_mb"] = float64(int64(liveHeap())-int64(base)) / (1 << 20)
		return o, nil
	}

	// Traced: an untraced half, then a half with the wire counted.
	half := dur / 2
	rec0, _ := s.drive(in, half, o)
	lat0, _ := rec0.samples()
	p50u := quantile(sortedCopy(lat0), 0.5)
	s.counter.on.Store(true)
	rec, runs := s.drive(in, half, o)
	s.counter.on.Store(false)
	lat, _ := rec.samples()
	tasks := float64(rec.n.Load())
	p50t := quantile(sortedCopy(lat), 0.5)
	o.metrics["telemetry.trace_overhead_pct"] = 100 * ratio(p50t-p50u, p50u)
	o.metrics["webcom.dispatch_us"] = mean(lat) / 1e3
	o.metrics["webcom.wire_bytes_per_task"] = ratio(float64(s.counter.bytes.Load()), tasks)
	o.metrics["webcom.writes_per_task"] = ratio(float64(s.counter.writes.Load()), tasks)
	o.metrics["cg.run_ms"] = mean(runs) / 1e6
	local, err := localPerNode(in, sz.localRuns)
	if err != nil {
		return nil, err
	}
	o.metrics["cg.local_us_per_node"] = local
	// Worker time per task: the makespan spread over the engine's
	// workers and the graph's tasks. What the dispatch and the engine's
	// own per-node cost do not cover is unattributed.
	budget := o.metrics["cg.run_ms"] * 1e3 * engineWorkers / float64(in.graphs[0].tasks)
	unattributed := budget - o.metrics["webcom.dispatch_us"] - local
	o.metrics[wlDispatch+".unattributed_us"] = unattributed
	o.metrics[wlDispatch+".unattributed_pct"] = 100 * ratio(unattributed, budget)
	o.report["worker_us_per_task"] = budget
	return o, nil
}

// localPerNode runs the fixture graphs in-process — opaque "add" nodes
// evaluated on the spot, everything else by cg.LocalExecutor — and
// returns the engine's cost per fired node in µs.
func localPerNode(in *dispatchInputs, runs int) (float64, error) {
	exec := func(ctx context.Context, t cg.Task, op cg.Operator) (string, error) {
		if _, ok := op.(*cg.Opaque); ok {
			return addOp(t.Args)
		}
		return cg.LocalExecutor(ctx, t, op)
	}
	var total time.Duration
	fired := 0
	for i := 0; i < runs; i++ {
		gc := &in.graphs[i%len(in.graphs)]
		eng := &cg.Engine{Library: gc.lib, Exec: exec}
		t0 := time.Now()
		got, st, err := eng.Run(context.Background(), gc.g, nil)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if got != gc.want {
			return 0, fmt.Errorf("local run of %s: got %s, want %s", gc.g.Exit(), got, gc.want)
		}
		fired += st.Fired
	}
	return ratio(float64(total.Nanoseconds()), float64(fired)) / 1e3, nil
}
