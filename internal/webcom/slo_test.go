package webcom

import (
	"context"
	"sort"
	"testing"
	"time"

	"securewebcom/internal/cg"
)

// The dispatch-plane SLO: one schedule→execute→result round trip over
// the in-process pipe transport must complete in under 5µs at the
// median. The pipe transport is deliberate — it prices the protocol
// (codec, coalesced writes, admission-time authorisation, scheduler)
// without the host kernel's syscall and loopback latency, which varies
// an order of magnitude across CI machines and is not this codebase's
// to optimise. BenchmarkDispatchTCP tracks the kernel-inclusive number.
//
// A wall-clock ceiling measures the machine as much as the code, so
// the ceilings live in benchmarks, not tests: each BenchmarkSLO_*
// reports its SLO statistic as ns/op and the dispatch-bench CI job holds
// it under the ceiling with tools/benchcmp -max-ns (binary median 5µs;
// JSON fallback median and 1K-graph per-task cost 4× that). The
// TestSLO_* tests keep the checks that hold on any machine: exact
// answers, fired-node counts, a working warm path, the alloc budget.

// sloRounds is how many batches of round trips the SLO statistic takes
// the best median of.
const sloRounds = 5

// sloContext derives a run budget from the test binary's own -timeout
// deadline (less a grace period for teardown and diagnostics) instead
// of a hard-coded wall-clock guess; the fallback covers a disabled
// test timeout.
func sloContext(tb testing.TB) (context.Context, context.CancelFunc) {
	tb.Helper()
	if t, ok := tb.(*testing.T); ok {
		if d, ok := t.Deadline(); ok {
			return context.WithDeadline(context.Background(), d.Add(-10*time.Second))
		}
	}
	return context.WithTimeout(context.Background(), 5*time.Minute)
}

// medianRoundTrip warms the path with 200 round trips, then runs rounds
// batches of samples round trips each and returns the smallest
// per-round median observed. Taking the best round filters scheduler
// noise and GC pauses — the SLO prices steady-state protocol cost, not
// worst-case host jitter. Every answer is checked.
func medianRoundTrip(tb testing.TB, env *chaosEnv, rounds, samples int) time.Duration {
	tb.Helper()
	exec := env.master.Executor()
	ctx := context.Background()
	task := cg.Task{OpName: "double", Args: []string{"21"}}
	op := &cg.Opaque{OpName: "double", OpArity: 1}
	roundTrip := func() {
		if got, err := exec(ctx, task, op); err != nil || got != "42" {
			tb.Fatalf("double(21) = %q, %v; want 42", got, err)
		}
	}
	for i := 0; i < 200; i++ { // warm pools, intern tables, verdict bitmaps
		roundTrip()
	}
	best := time.Duration(1<<63 - 1)
	durs := make([]time.Duration, samples)
	for r := 0; r < rounds; r++ {
		for i := range durs {
			start := time.Now()
			roundTrip()
			durs[i] = time.Since(start)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		if m := durs[samples/2]; m < best {
			best = m
		}
	}
	return best
}

// benchMedian reports medianRoundTrip over b.N round trips as ns/op.
// Run with -benchtime=10000x it is the SLO statistic exactly: the best
// of sloRounds medians of 2000 round trips each.
func benchMedian(b *testing.B, env *chaosEnv) {
	samples := max(b.N/sloRounds, 1)
	median := medianRoundTrip(b, env, sloRounds, samples)
	b.ReportMetric(float64(median.Nanoseconds()), "ns/op")
}

// TestSLO_DispatchMedian checks the binary-codec round trip the
// headline SLO prices answers exactly, warm and cold.
func TestSLO_DispatchMedian(t *testing.T) {
	env := newBenchEnv(t, CodecAuto, true)
	t.Logf("dispatch median %v (ceiling gated by BenchmarkSLO_DispatchMedian)",
		medianRoundTrip(t, env, 2, 200))
}

// BenchmarkSLO_DispatchMedian reports the headline number: the median
// task round trip on the binary codec, held under 5µs.
func BenchmarkSLO_DispatchMedian(b *testing.B) {
	benchMedian(b, newBenchEnv(b, CodecAuto, true))
}

// TestSLO_DispatchAllocs gates the steady-state allocation budget: at
// most 10 allocations per round trip on the Executor's goroutine (the
// measured number is 0; 10 is the contract in the issue).
func TestSLO_DispatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short")
	}
	env := newBenchEnv(t, CodecAuto, true)
	res := testing.Benchmark(func(b *testing.B) {
		benchDispatch(b, env)
	})
	if allocs := res.AllocsPerOp(); allocs > 10 {
		t.Fatalf("dispatch allocates %d times per op, budget is 10", allocs)
	} else {
		t.Logf("dispatch allocs/op = %d (budget 10)", allocs)
	}
}

// TestSLO_DispatchJSONFallback checks the negotiated-down JSON path old
// peers speak answers exactly, warm and cold.
func TestSLO_DispatchJSONFallback(t *testing.T) {
	env := newBenchEnv(t, CodecJSON, true)
	t.Logf("JSON fallback median %v (ceiling gated by BenchmarkSLO_DispatchJSONFallback)",
		medianRoundTrip(t, env, 2, 200))
}

// BenchmarkSLO_DispatchJSONFallback reports the JSON fallback's median
// round trip, held at 4× the binary SLO, so the fallback for old peers
// can degrade but never rot into something pathological.
func BenchmarkSLO_DispatchJSONFallback(b *testing.B) {
	benchMedian(b, newBenchEnv(b, CodecJSON, true))
}

// graph1K runs the 1 000-node synthetic fixture through the full
// dispatch plane — every node an Opaque "add" shipped to the client —
// once warm-up and then runs more times, checking each result exactly,
// and returns the best amortised per-task time.
func graph1K(tb testing.TB, runs int) time.Duration {
	tb.Helper()
	env := newBenchEnv(tb, CodecAuto, true)
	g, want, err := cg.Fixture(cg.FixtureSpec{Nodes: 1000, Seed: 42, Remote: true})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := sloContext(tb)
	defer cancel()
	// Warm run: pools, verdict bitmap, intern table.
	if got, _, err := env.master.Run(ctx, &cg.Engine{Workers: 8}, g, nil); err != nil || got != want {
		tb.Fatalf("warm run: got %q err %v, want %q", got, err, want)
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < runs; r++ {
		start := time.Now()
		got, stats, err := env.master.Run(ctx, &cg.Engine{Workers: 8}, g, nil)
		elapsed := time.Since(start)
		if err != nil {
			tb.Fatal(err)
		}
		if got != want {
			tb.Fatalf("result %q, want %q", got, want)
		}
		if stats.Fired != 1000 {
			tb.Fatalf("fired %d nodes, want 1000", stats.Fired)
		}
		best = min(best, elapsed/1000)
	}
	return best
}

// TestSLO_DispatchGraph1K checks the 1K-node fixture's analytic result
// and fired-node count, warm and repeated.
func TestSLO_DispatchGraph1K(t *testing.T) {
	if testing.Short() {
		t.Skip("1K-node fixture skipped in -short")
	}
	t.Logf("1K-node fixture: %v per task (ceiling gated by BenchmarkSLO_DispatchGraph1K)", graph1K(t, 3))
}

// BenchmarkSLO_DispatchGraph1K reports the 1K-node fixture's best
// amortised per-task cost over b.N runs (-benchtime=3x is the SLO's
// statistic), held at 4× the flat-dispatch SLO: graph runs pay engine
// bookkeeping, trace spans and operand routing on top of the round trip.
func BenchmarkSLO_DispatchGraph1K(b *testing.B) {
	b.ReportMetric(float64(graph1K(b, b.N).Nanoseconds()), "ns/op")
}
