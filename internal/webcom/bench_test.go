package webcom

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/faultnet"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

// pipeListener is an in-process transport: Accept hands out the server
// half of a net.Pipe whose client half dialMem returned. It removes the
// kernel from the loop, so dispatch-plane benchmarks measure the codec,
// the scheduler and the authorisation path — not the host's syscall and
// loopback latency, which varies an order of magnitude across machines.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("pipe listener closed")
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "pipe", Net: "mem"}
}

func (l *pipeListener) dialMem(string) (net.Conn, error) {
	c1, c2 := net.Pipe()
	select {
	case l.ch <- c2:
		return c1, nil
	case <-l.done:
		c1.Close()
		c2.Close()
		return nil, errors.New("pipe listener closed")
	}
}

// newBenchEnv builds a single-client environment speaking the given
// codec, with the same policies as the chaos suite. With mem=true the
// pair is wired over net.Pipe (no syscalls); otherwise it rides healthy
// loopback TCP through faultnet like the chaos suite.
func newBenchEnv(tb testing.TB, codec string, mem bool) *chaosEnv {
	if !mem {
		return newChaosEnvCodec(tb, faultnet.Config{Seed: 1}, 1, RetryPolicy{}, Liveness{}, codec)
	}
	tb.Helper()
	env := &chaosEnv{tb: tb}
	ks := keys.NewKeyStore()
	mk := keys.Deterministic("Kmaster", "webcom-bench")
	ck := keys.Deterministic("KC0", "webcom-bench")
	ks.Add(mk)
	ks.Add(ck)
	chk, err := keynote.NewChecker([]*keynote.Assertion{keynote.MustNew(
		"POLICY", fmt.Sprintf("%q", ck.PublicID()), `app_domain=="WebCom";`)},
		keynote.WithResolver(ks))
	if err != nil {
		tb.Fatal(err)
	}
	env.master = NewMaster(mk, chk, nil, ks)
	env.master.Codec = codec
	ln := newPipeListener()
	env.master.Serve(ln)
	tb.Cleanup(func() { env.master.Close() })

	clientChk, err := keynote.NewChecker([]*keynote.Assertion{keynote.MustNew(
		"POLICY", fmt.Sprintf("%q", mk.PublicID()),
		`app_domain=="WebCom" && operation != "forbidden";`)},
		keynote.WithResolver(ks))
	if err != nil {
		tb.Fatal(err)
	}
	cl := &Client{
		Name:    "C0",
		Key:     ck,
		Codec:   codec,
		Checker: clientChk,
		Dial:    ln.dialMem,
		Local: map[string]func([]string) (string, error){
			"double": func(args []string) (string, error) {
				n, err := strconv.Atoi(args[0])
				if err != nil {
					return "", err
				}
				return strconv.Itoa(2 * n), nil
			},
			// "add" serves the cg fixture graphs the SLO gates dispatch.
			"add": func(args []string) (string, error) {
				a, err := strconv.ParseInt(args[0], 10, 64)
				if err != nil {
					return "", err
				}
				b, err := strconv.ParseInt(args[1], 10, 64)
				if err != nil {
					return "", err
				}
				return strconv.FormatInt(a+b, 10), nil
			},
		},
	}
	if err := cl.Connect(env.master.Addr()); err != nil {
		tb.Fatal(err)
	}
	env.clients = append(env.clients, cl)
	tb.Cleanup(func() { cl.Close() })
	waitN(tb, env.master, 1)
	return env
}

// BenchmarkDispatch measures one schedule→execute→result round trip of
// the dispatch plane — binary codec, coalesced writes, admission-time
// authorisation on both sides — over an in-process pipe transport. This
// is the round trip the BenchmarkSLO_Dispatch* ceilings and the CI
// dispatch-bench job track; BenchmarkDispatchTCP prices the same round
// trip with the kernel in the loop.
func BenchmarkDispatch(b *testing.B) {
	benchDispatch(b, newBenchEnv(b, CodecAuto, true))
}

// BenchmarkDispatchJSON is BenchmarkDispatch over the negotiated-down
// JSON fallback: the price an old peer pays on the same architecture.
func BenchmarkDispatchJSON(b *testing.B) {
	benchDispatch(b, newBenchEnv(b, CodecJSON, true))
}

// BenchmarkDispatchTCP measures the full round trip over healthy
// loopback TCP (through the faultnet wrapper, like the chaos suite), so
// the syscall + loopback floor is visible next to BenchmarkDispatch.
func BenchmarkDispatchTCP(b *testing.B) {
	benchDispatch(b, newBenchEnv(b, CodecAuto, false))
}

func benchDispatch(b *testing.B, env *chaosEnv) {
	ctx := context.Background()
	exec := env.master.Executor()
	task := cg.Task{OpName: "double", Args: []string{"21"}}
	op := &cg.Opaque{OpName: "double", OpArity: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec(ctx, task, op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederatedRun prices the federation plane. The sub-benchmarks
// are the sections BENCH_federation.json records and CI gates:
//
//   - full: three tiers over loopback TCP — root delegates both wing
//     subgraphs to a sub-master that schedules them over two leaf
//     clients. The shape the pre-amortisation 5.7ms figure measured.
//   - warm: the gated repeat-delegation path — two tiers over an
//     in-process pipe, mint cache hot, relint skipped, sub executing
//     the subgraph through its Local table. CI holds the median under
//     100µs and ≥10x over the pre-amortisation baseline.
//   - cold: warm's topology with both engines invalidated every
//     iteration, so each delegation pays the full Ed25519 mint and
//     double policylint — the price the caches amortise away.
//   - streamed: warm's topology delegating a 16-node chain, so one
//     delegation streams 16 delegate_result frames.
//   - stolen: a wedged primary sub-master speculatively re-delegated
//     to its sibling — dominated by the deliberate silence window
//     before the speculation trigger fires.
func BenchmarkFederatedRun(b *testing.B) {
	b.Run("full", benchFederatedFull)
	b.Run("warm", benchFederatedWarm)
	b.Run("cold", benchFederatedCold)
	b.Run("streamed", benchFederatedStreamed)
	b.Run("stolen", benchFederatedStolen)
}

func benchFederatedFull(b *testing.B) {
	env := newFedEnv(b, 1, 2, nil, nil, RetryPolicy{}, Liveness{})
	lib := fedLibrary(b)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := fedRootGraph(b)
		got, _, err := env.root.Run(ctx, &cg.Engine{Library: lib, Workers: 4}, g, nil)
		if err != nil {
			b.Fatal(err)
		}
		if got != "40" {
			b.Fatalf("result = %q, want 40", got)
		}
	}
}

// benchTwoTier runs want-checked federated evaluations of g over a
// two-tier pipe-wired env, invalidating both tiers' engines first when
// cold is set.
func benchTwoTier(b *testing.B, env *tierEnv, lib *cg.Library, g *cg.Graph, want string, cold bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	eng := &cg.Engine{Library: lib, Workers: 4}
	// Prime the mint cache, the relint table and the admission sessions.
	if got, _, err := env.root.Run(ctx, eng, g, nil); err != nil || got != want {
		b.Fatalf("warm-up run = %q, %v (want %q)", got, err, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			env.root.Engine().Invalidate()
			env.subs[0].Engine().Invalidate()
		}
		got, _, err := env.root.Run(ctx, eng, g, nil)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("result = %q, want %q", got, want)
		}
	}
}

func benchFederatedWarm(b *testing.B) {
	env := newTwoTierEnv(b, 1, tierOpts{mem: true,
		local: func(int) map[string]func([]string) (string, error) { return localDouble() }})
	benchTwoTier(b, env, fedLibrary(b), soloGraph(b), "16", false)
}

func benchFederatedCold(b *testing.B) {
	env := newTwoTierEnv(b, 1, tierOpts{mem: true,
		local: func(int) map[string]func([]string) (string, error) { return localDouble() }})
	benchTwoTier(b, env, fedLibrary(b), soloGraph(b), "16", true)
}

// chainFixture returns a library whose "chain" graph doubles its input
// n times, a main graph delegating one condensed chain on input 1, and
// the expected result 2^n.
func chainFixture(tb testing.TB, n int) (*cg.Library, *cg.Graph, string) {
	tb.Helper()
	lib := cg.NewLibrary()
	ch := cg.NewGraph("chain")
	for i := 0; i < n; i++ {
		id := "c" + strconv.Itoa(i)
		ch.MustAddNode(id, &cg.Opaque{OpName: "double", OpArity: 1})
		if i == 0 {
			if err := ch.BindInput("x", id, 0); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		if err := ch.Connect("c"+strconv.Itoa(i-1), id, 0); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ch.SetExit("c" + strconv.Itoa(n-1)); err != nil {
		tb.Fatal(err)
	}
	if err := lib.Define(ch); err != nil {
		tb.Fatal(err)
	}
	main := cg.NewGraph("chainmain")
	main.MustAddNode("m", &cg.Condensed{GraphName: "chain", ArityHint: 1})
	if err := main.SetConst("m", 0, "1"); err != nil {
		tb.Fatal(err)
	}
	if err := main.SetExit("m"); err != nil {
		tb.Fatal(err)
	}
	return lib, main, strconv.FormatInt(1<<n, 10)
}

func benchFederatedStreamed(b *testing.B) {
	env := newTwoTierEnv(b, 1, tierOpts{mem: true,
		local: func(int) map[string]func([]string) (string, error) { return localDouble() }})
	// The progress consumer is what makes the root request streaming:
	// this section measures a delegation with per-node frames on the wire.
	env.root.OnDelegateProgress = func(string, string) {}
	lib, g, want := chainFixture(b, 16)
	benchTwoTier(b, env, lib, g, want, false)
}

func benchFederatedStolen(b *testing.B) {
	type iterState struct {
		wedged  atomic.Int32
		release chan struct{}
	}
	var cur atomic.Pointer[iterState]
	local := func(i int) map[string]func([]string) (string, error) {
		return map[string]func([]string) (string, error){
			"double": func(args []string) (string, error) {
				st := cur.Load()
				// The first sub-master to execute becomes this iteration's
				// silent straggler; its tasks block until the run completes.
				if st.wedged.CompareAndSwap(-1, int32(i)) || st.wedged.Load() == int32(i) {
					<-st.release
					return "", errors.New("straggler released")
				}
				n, err := strconv.Atoi(args[0])
				if err != nil {
					return "", err
				}
				return strconv.Itoa(2 * n), nil
			},
		}
	}
	retry := fastRetry()
	retry.DelegateTimeout = 2 * time.Second
	retry.SpeculateAfter = 0.005 // speculate after 10ms of silence
	env := newTwoTierEnv(b, 2, tierOpts{mem: true, retry: retry, live: fastLive(), local: local})
	lib := fedLibrary(b)
	g := soloGraph(b)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	eng := &cg.Engine{Library: lib, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &iterState{release: make(chan struct{})}
		st.wedged.Store(-1)
		cur.Store(st)
		got, _, err := env.root.Run(ctx, eng, g, nil)
		close(st.release)
		if err != nil {
			b.Fatal(err)
		}
		if got != "16" {
			b.Fatalf("result = %q, want 16", got)
		}
	}
	b.StopTimer()
	// Let the released stragglers drain before leakCheck fires.
	time.Sleep(50 * time.Millisecond)
}

// BenchmarkRunUnderFaults measures a 10-task condensed graph run across
// 3 clients while faultnet injects a ~30% mixed fault load — the price
// of riding through stalls, partitions, corruption and drops.
func BenchmarkRunUnderFaults(b *testing.B) {
	env := newChaosEnv(b, faultnet.Config{
		Seed: 55, PStall: 0.1, PPartition: 0.1, PCorrupt: 0.05, PDrop: 0.05,
		TriggerBytes: 1024,
	}, 3, fastRetry(), fastLive())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, want := chaosGraph(b, 10)
		got, _, err := env.master.Run(ctx, &cg.Engine{Workers: 8}, g, nil)
		if err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("result = %q, want %q", got, want)
		}
	}
}
