package webcom

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/faultnet"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// leakCheck fails the test if goroutines outlive the test's cleanups.
// Register it FIRST so it runs after every other cleanup has torn the
// fixture down (cleanups run last-in first-out).
func leakCheck(t testing.TB) (settle func() bool) {
	t.Helper()
	base := runtime.NumGoroutine()
	// settle waits up to 10s for the goroutines started since leakCheck
	// to exit, and reports whether they did.
	settle = func() bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return true
			}
			time.Sleep(25 * time.Millisecond)
		}
		return false
	}
	t.Cleanup(func() {
		if settle() {
			return
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at start, %d after teardown\n%s",
			base, runtime.NumGoroutine(), buf[:n])
	})
	return settle
}

// fastRetry returns a RetryPolicy tuned for chaos tests: generous
// attempts, quick backoff, short dispatch deadlines.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:      100,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		DispatchTimeout:  1500 * time.Millisecond,
		FailureThreshold: 2,
		Quarantine:       100 * time.Millisecond,
		MaxInFlight:      8,
	}
}

// fastLive returns a Liveness tuned for chaos tests so stalls and
// partitions are detected in milliseconds, not minutes.
func fastLive() Liveness {
	return Liveness{
		PingInterval:     50 * time.Millisecond,
		IdleTimeout:      250 * time.Millisecond,
		HandshakeTimeout: 300 * time.Millisecond,
	}
}

// chaosEnv is a master plus a pool of auto-reconnecting clients, all of
// whose traffic crosses a faultnet injector.
type chaosEnv struct {
	tb            testing.TB
	master        *Master
	inj           *faultnet.Injector
	clients       []*Client
	forbiddenRuns atomic.Int64 // executions of the policy-denied op
}

// newChaosEnv starts a master behind a faultnet listener and attaches
// nClients auto-reconnecting clients. Every client's own policy denies
// the op "forbidden" and allows everything else, so the suite can prove
// denials survive chaos without ever executing.
func newChaosEnv(tb testing.TB, cfg faultnet.Config, nClients int, retry RetryPolicy, live Liveness) *chaosEnv {
	tb.Helper()
	return newChaosEnvCodec(tb, cfg, nClients, retry, live, CodecAuto)
}

// newChaosEnvCodec is newChaosEnv with the wire codec pinned on both
// sides: CodecAuto negotiates binary/1, CodecJSON keeps every frame on
// the JSON fallback (required by tests that inspect raw wire bytes, and
// by the acceptance gate that the fallback survives the full suite).
func newChaosEnvCodec(tb testing.TB, cfg faultnet.Config, nClients int, retry RetryPolicy, live Liveness, codec string) *chaosEnv {
	tb.Helper()
	env := &chaosEnv{tb: tb, inj: faultnet.New(cfg)}
	ks := keys.NewKeyStore()
	mk := keys.Deterministic("Kmaster", "webcom-chaos")
	ks.Add(mk)
	var policy []*keynote.Assertion
	names := make([]string, nClients)
	for i := range names {
		names[i] = fmt.Sprintf("C%d", i)
		ck := keys.Deterministic("K"+names[i], "webcom-chaos")
		ks.Add(ck)
		policy = append(policy, keynote.MustNew(
			"POLICY", fmt.Sprintf("%q", ck.PublicID()), `app_domain=="WebCom";`))
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		tb.Fatal(err)
	}
	env.master = NewMaster(mk, chk, nil, ks)
	env.master.Retry = retry
	env.master.Live = live
	env.master.Codec = codec
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	env.master.Serve(env.inj.Listener(ln))
	tb.Cleanup(func() { env.master.Close() })

	for _, name := range names {
		ck, _ := ks.ByName("K" + name)
		clientChk, err := keynote.NewChecker([]*keynote.Assertion{keynote.MustNew(
			"POLICY", fmt.Sprintf("%q", mk.PublicID()),
			`app_domain=="WebCom" && operation != "forbidden";`)},
			keynote.WithResolver(ks))
		if err != nil {
			tb.Fatal(err)
		}
		cl := &Client{
			Name:    name,
			Key:     ck,
			Codec:   codec,
			Checker: clientChk,
			Local: map[string]func([]string) (string, error){
				"double": func(args []string) (string, error) {
					n, err := strconv.Atoi(args[0])
					if err != nil {
						return "", err
					}
					return strconv.Itoa(2 * n), nil
				},
				"forbidden": func([]string) (string, error) {
					env.forbiddenRuns.Add(1)
					return "must never run", nil
				},
			},
			Live: live,
			Reconnect: ReconnectPolicy{
				Enabled:     true,
				MaxAttempts: -1, // chaos may kill many dials in a row
				BaseBackoff: 10 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
			},
		}
		// The initial dial itself can land on a stalled or dropped
		// connection; auto-reconnect only guards an established session,
		// so retry the first Connect here.
		deadline := time.Now().Add(20 * time.Second)
		for {
			if err := cl.Connect(env.master.Addr()); err == nil {
				break
			}
			if time.Now().After(deadline) {
				tb.Fatalf("client %s could not complete a handshake in 20s", name)
			}
			time.Sleep(20 * time.Millisecond)
		}
		env.clients = append(env.clients, cl)
		tb.Cleanup(func() { cl.Close() })
	}
	waitN(tb, env.master, nClients)
	return env
}

// close stops every client, then the master.
func (env *chaosEnv) close() {
	for _, cl := range env.clients {
		cl.Close()
	}
	env.master.Close()
}

func waitN(tb testing.TB, m *Master, n int) {
	tb.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if len(m.Clients()) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	tb.Fatalf("only %d clients connected, want %d", len(m.Clients()), n)
}

// chaosGraph builds a condensed graph with n opaque "double" tasks
// feeding one local summing node; the correct result is n*(n+1).
func chaosGraph(tb testing.TB, n int) (*cg.Graph, string) {
	tb.Helper()
	g := cg.NewGraph("chaos")
	g.MustAddNode("sum", &cg.Func{OpName: "sum", OpArity: n,
		Fn: func(args []string) (string, error) {
			total := 0
			for _, a := range args {
				v, err := strconv.Atoi(a)
				if err != nil {
					return "", err
				}
				total += v
			}
			return strconv.Itoa(total), nil
		}})
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("t%d", i)
		g.MustAddNode(id, &cg.Opaque{OpName: "double", OpArity: 1})
		if err := g.SetConst(id, 0, strconv.Itoa(i)); err != nil {
			tb.Fatal(err)
		}
		if err := g.Connect(id, "sum", i-1); err != nil {
			tb.Fatal(err)
		}
	}
	if err := g.SetExit("sum"); err != nil {
		tb.Fatal(err)
	}
	return g, strconv.Itoa(n * (n + 1))
}

// runForbidden schedules the client-policy-denied op and returns the
// error the scheduler surfaced.
func runForbidden(tb testing.TB, env *chaosEnv, ctx context.Context) error {
	tb.Helper()
	g := cg.NewGraph("denied")
	g.MustAddNode("n", &cg.Opaque{OpName: "forbidden", OpArity: 0})
	if err := g.SetExit("n"); err != nil {
		tb.Fatal(err)
	}
	_, _, err := env.master.Run(ctx, &cg.Engine{}, g, nil)
	return err
}

// TestChaosSuite drives a 20-task condensed graph to completion while
// faultnet injects each fault class in turn (and all of them mixed),
// asserting the result is still correct, a policy denial is never
// executed or retried past its decision, and no goroutines leak.
func TestChaosSuite(t *testing.T) {
	const tasks = 20
	cases := []struct {
		name string
		cfg  faultnet.Config
	}{
		{name: "stalls", cfg: faultnet.Config{Seed: 11, PStall: 0.5, TriggerBytes: 512}},
		{name: "partitions", cfg: faultnet.Config{Seed: 22, PPartition: 0.5, TriggerBytes: 512}},
		{name: "corrupt-frames", cfg: faultnet.Config{Seed: 33, PCorrupt: 0.5, TriggerBytes: 384}},
		{name: "drops", cfg: faultnet.Config{Seed: 10, PDrop: 0.5, TriggerBytes: 384}},
		{name: "mixed", cfg: faultnet.Config{
			Seed: 55, PStall: 0.15, PPartition: 0.15, PCorrupt: 0.15, PDrop: 0.1,
			PLatency: 0.05, MaxLatency: 2 * time.Millisecond, TriggerBytes: 512,
		}},
	}
	// Acceptance floor: every class must actually land on >= 30% of the
	// connections it saw, across >= 3 clients.
	const wantRate, wantConns = 0.3, 3
	// Every fault class runs against both wire codecs: the negotiated
	// binary/1 frames and the JSON fallback old peers still speak.
	for _, codec := range []string{CodecAuto, CodecJSON} {
		codecName := "binary"
		if codec == CodecJSON {
			codecName = "json"
		}
		for _, tc := range cases {
			tc := tc
			t.Run(codecName+"/"+tc.name, func(t *testing.T) {
				settle := leakCheck(t)
				tel := telemetry.NewRegistry()
				tc.cfg.Tel = tel
				env := newChaosEnvCodec(t, tc.cfg, 3, fastRetry(), fastLive(), codec)
				g, want := chaosGraph(t, tasks)
				ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
				defer cancel()

				got, stats, err := env.master.Run(ctx, &cg.Engine{Workers: 8}, g, nil)
				if err != nil {
					t.Fatalf("graph failed under %s: %v", tc.name, err)
				}
				if got != want {
					t.Fatalf("result = %q, want %q", got, want)
				}
				if stats.Fired != tasks+1 {
					t.Fatalf("fired %d nodes, want %d", stats.Fired, tasks+1)
				}

				// The policy-denied op must surface as a denial and must
				// never have executed, chaos or not.
				if err := runForbidden(t, env, ctx); err == nil {
					t.Fatal("forbidden op succeeded")
				} else if !strings.Contains(err.Error(), "denied") {
					t.Fatalf("forbidden op failed for the wrong reason: %v", err)
				}
				if n := env.forbiddenRuns.Load(); n != 0 {
					t.Fatalf("policy-denied op executed %d times", n)
				}

				// Read the injector and the registry only once nothing can
				// wrap or fault a connection any more: a client still
				// reconnecting would otherwise bump one between the reads.
				env.close()
				if !settle() {
					t.Fatal("dispatch goroutines outlived the teardown")
				}
				st := env.inj.Stats()
				t.Logf("%s: %d conns wrapped, fault rate %.2f, swallowed %dB, corrupted %d writes, dropped %d conns",
					tc.name, st.Wrapped, st.FaultRate(), st.SwallowedBytes, st.CorruptedWrites, st.DroppedConns)
				if st.FaultRate() < wantRate {
					t.Errorf("observed fault rate %.2f < %.2f over %d conns", st.FaultRate(), wantRate, st.Wrapped)
				}
				if st.Wrapped < wantConns {
					t.Errorf("only %d connections wrapped, want >= %d", st.Wrapped, wantConns)
				}

				// The injector mirrors everything into the telemetry registry;
				// the fault rate must be recoverable from the metrics alone.
				snap := tel.Snapshot()
				if got := snap.Counters["faultnet.wrapped"]; got != int64(st.Wrapped) {
					t.Errorf("faultnet.wrapped = %d, injector saw %d", got, st.Wrapped)
				}
				var faulted int64
				for class, n := range st.ByClass {
					key := "faultnet.class." + class.String()
					if got := snap.Counters[key]; got != int64(n) {
						t.Errorf("%s = %d, injector saw %d", key, got, n)
					}
					if class != faultnet.None {
						faulted += snap.Counters[key]
					}
				}
				if wrapped := snap.Counters["faultnet.wrapped"]; wrapped > 0 {
					if rate := float64(faulted) / float64(wrapped); rate < wantRate {
						t.Errorf("metric-derived fault rate %.2f < %.2f", rate, wantRate)
					}
				}
				if got := snap.Counters["faultnet.swallowed.bytes"]; got != st.SwallowedBytes {
					t.Errorf("faultnet.swallowed.bytes = %d, injector saw %d", got, st.SwallowedBytes)
				}
				if got := snap.Counters["faultnet.corrupted.writes"]; got != st.CorruptedWrites {
					t.Errorf("faultnet.corrupted.writes = %d, injector saw %d", got, st.CorruptedWrites)
				}
				if got := snap.Counters["faultnet.dropped.conns"]; got != int64(st.DroppedConns) {
					t.Errorf("faultnet.dropped.conns = %d, injector saw %d", got, st.DroppedConns)
				}
			})
		}
	}
}
