// Command perfbench is the repository's end-to-end benchmark. It drives
// the authzd front door and the WebCom dispatch plane, wired as the
// shipped binaries wire them, with load generated from a seed; checks
// every answer against an oracle of its own; and prints one JSON result
// line.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload decide-zipf|decide-churn|dispatch-graph \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of the named
// workload. With --trace 1 it carries the per-layer metrics instead:
// the named workload runs traced for the full time, the other two for a
// shorter time, so every layer is measured in every traced run. NOTES.md
// explains the workloads and maps each metric to its layer.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// Workload names.
const (
	wlZipf     = "decide-zipf"
	wlChurn    = "decide-churn"
	wlDispatch = "dispatch-graph"
)

// workloads are the workloads the program runs. BENCHMARK.json gates the
// two decide workloads only: dispatch-graph's end-to-end numbers did not
// repeat between runs on the host the benchmark was tuned on (NOTES.md),
// so it runs in every traced run for its per-layer metrics and can be
// run by hand, but is not baselined.
var workloads = []string{wlZipf, wlChurn, wlDispatch}

// loaders is the number of connections and load goroutines, matching
// the two cores the benchmark was sized on.
const loaders = 2

// sizes fixes every population and fixture size of a run. The binary
// always uses fullSize; the smoke tests shrink it.
type sizes struct {
	principals   int     // JWT principals in the decide population
	zipfS        float64 // zipf skew of principal popularity
	bulkEvery    int     // one decide request in bulkEvery is a bulk batch
	bulkSize     int     // queries per bulk batch (at most 64)
	inScope      float64 // share of single decides asking for an in-scope operation
	stream       int     // pre-generated decide requests, cycled
	warmup       int     // decide requests of every set-up's warm-up pass
	catalogue    int     // principals seeded into the KeyCOM store
	commitRate   float64 // decide-churn commits per second; at 64/s every window holds one store snapshot
	probeCommits int     // commits of the post-phase commit probe
	cells        int     // WideFixture subgraphs
	cellNodes    int     // WideFixture nodes per subgraph
	graphs       int     // distinct fixture graphs, run in turn
	setups       int     // minimum set-up repetitions; setup_s is their median
	setupSeconds float64 // repeat set-up until this long has been spent (at most 3×setups times)
	replayOps    int     // decide requests of each in-process layer replay
	replayCommit int     // commits of the KeyCOM layer replay
	localRuns    int     // graph runs under the local executor
}

var fullSize = sizes{
	principals:   100_000,
	zipfS:        1.5,
	bulkEvery:    10,
	bulkSize:     32,
	inScope:      0.8,
	stream:       1 << 19,
	warmup:       20_000,
	catalogue:    20_000,
	commitRate:   64,
	probeCommits: 1100,
	cells:        32,
	cellNodes:    64,
	graphs:       4,
	setups:       5,
	setupSeconds: 2,
	replayOps:    20_000,
	replayCommit: 192,
	localRuns:    20,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	report            map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}}
}

func (o *outcome) fail(kind string, n int64) {
	if n == 0 {
		return
	}
	o.failed += n
	f, _ := o.report["failures"].(map[string]int64)
	if f == nil {
		f = map[string]int64{}
		o.report["failures"] = f
	}
	f[kind] += n
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits lists the end-to-end metrics an untraced run prints; see
// e2eMetrics for the ones dispatch-graph leaves out.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"op_p50_us":       "us",
	"op_p99_us":       "us",
	"cpu_us_per_op":   "us",
	"alloc_kb_per_op": "KiB",
	"live_heap_mb":    "MiB",
	"commit_p50_ms":   "ms",
	"commit_p99_ms":   "ms",
}

// layerUnits lists the per-layer metrics every traced run prints.
var layerUnits = map[string]string{
	"gateway.http_us":                "us",
	"gateway.handler_self_us":        "us",
	"gateway.handler_alloc_kb":       "KiB",
	"jwtbridge.verify_us":            "us",
	"jwtbridge.admit_hit_us":         "us",
	"jwtbridge.admit_miss_us":        "us",
	"jwtbridge.mint_hit_ratio":       "ratio",
	"authz.session_us":               "us",
	"authz.decide_us":                "us",
	"authz.bulk_us_per_query":        "us",
	"authz.session_miss_ratio":       "ratio",
	"authz.decision_hit_ratio":       "ratio",
	"authz.invalidations_per_s":      "1/s",
	"compile.compile_us":             "us",
	"keycom.apply_ms":                "ms",
	"keycom.store_commit_ms":         "ms",
	"keycom.snapshot_ms":             "ms",
	"keycom.wal_bytes_per_commit":    "B",
	"keycom.fsyncs_per_commit":       "count",
	"keycom.recover_ms":              "ms",
	"keycom.recover_alloc_mb":        "MiB",
	"webcom.dispatch_us":             "us",
	"webcom.wire_bytes_per_task":     "B",
	"webcom.writes_per_task":         "count",
	"webcom.handshake_ms":            "ms",
	"cg.local_us_per_node":           "us",
	"cg.run_ms":                      "ms",
	"telemetry.trace_overhead_pct":   "%",
	wlZipf + ".unattributed_us":      "us",
	wlZipf + ".unattributed_pct":     "%",
	wlChurn + ".unattributed_us":     "us",
	wlChurn + ".unattributed_pct":    "%",
	wlDispatch + ".unattributed_us":  "us",
	wlDispatch + ".unattributed_pct": "%",
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from a traced run")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.size = fullSize
	res, report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(rep))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run executes one benchmark invocation and renders its result.
func run(cfg config) (*result, map[string]any, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	var o *outcome
	var err error
	if cfg.trace {
		o, err = runTraced(cfg)
	} else {
		o, err = runWorkload(cfg, false)
	}
	if err != nil {
		return nil, nil, err
	}
	units := e2eMetrics(cfg.workload)
	if cfg.trace {
		units = layerUnits
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		v, ok := o.metrics[name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", cfg.workload, name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	res.Correct = o.failed == 0 && o.attempted > 0
	o.report["workload"] = cfg.workload
	o.report["seed"] = cfg.seed
	o.report["seconds"] = cfg.seconds
	o.report["trace"] = cfg.trace
	o.report["machine"] = machineProfile()
	return res, o.report, nil
}

// e2eMetrics returns the end-to-end metrics an untraced run of workload
// prints: all of them, except that dispatch-graph sends no commits and
// so has no commit latency.
func e2eMetrics(workload string) map[string]string {
	if workload != wlDispatch {
		return e2eUnits
	}
	m := map[string]string{}
	for name, unit := range e2eUnits {
		if !strings.HasPrefix(name, "commit_") {
			m[name] = unit
		}
	}
	return m
}

// moreSetups reports whether set-up should be repeated after the
// repetitions that took times (seconds): a quick set-up is repeated
// more often, so that its median settles too.
func (sz sizes) moreSetups(times []float64) bool {
	total := 0.0
	for _, t := range times {
		total += t
	}
	return len(times) < sz.setups || (total < sz.setupSeconds && len(times) < 3*sz.setups)
}

// runWorkload runs cfg.workload, traced or not.
func runWorkload(cfg config, traced bool) (*outcome, error) {
	if cfg.workload == wlDispatch {
		return runDispatch(cfg, traced)
	}
	return runDecide(cfg, cfg.workload == wlChurn, traced)
}

// runTraced runs the named workload traced for the full time and the
// other two for a third of it, merging their per-layer metrics: a layer
// metric comes from the named workload when it exercises that layer.
func runTraced(cfg config) (*outcome, error) {
	all := newOutcome()
	order := []string{cfg.workload}
	for _, w := range workloads {
		if w != cfg.workload {
			order = append(order, w)
		}
	}
	for i, wl := range order {
		c := cfg
		c.workload = wl
		if i > 0 {
			c.seconds = math.Max(1, cfg.seconds/3)
		}
		o, err := runWorkload(c, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl, err)
		}
		all.attempted += o.attempted
		all.failed += o.failed
		for k, v := range o.metrics {
			if _, taken := all.metrics[k]; !taken {
				all.metrics[k] = v
			}
		}
		all.report[wl] = o.report
	}
	kc, err := replayKeycom(cfg)
	if err != nil {
		return nil, fmt.Errorf("keycom replay: %w", err)
	}
	for k, v := range kc {
		all.metrics[k] = v
	}
	return all, nil
}

// ---- measurement helpers ----

// window is the slice a timed phase is cut into. Rates, latency
// quantiles and per-op costs are computed per window and the median
// across windows is reported, so a stall that a neighbour on the shared
// host causes moves one window, not the result.
const window = time.Second

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes returns the heap bytes allocated since the process
// started.
func allocatedBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeap returns the live heap in bytes. It collects twice: objects
// parked in a sync.Pool survive one collection, and pooled buffers (a
// snapshot's JSON encoder, for one) would otherwise count as held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sampler reads process CPU and allocated bytes at the start of a timed
// phase and at every window boundary inside it.
type sampler struct {
	start time.Time
	cpu   []time.Duration
	alloc []uint64
	done  chan struct{}
}

func startSampler(dur time.Duration) *sampler {
	s := &sampler{start: time.Now(), done: make(chan struct{})}
	n := int(dur / window)
	s.cpu, s.alloc = []time.Duration{processCPU()}, []uint64{allocatedBytes()}
	go func() {
		defer close(s.done)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(s.start.Add(time.Duration(k) * window)))
			s.cpu = append(s.cpu, processCPU())
			s.alloc = append(s.alloc, allocatedBytes())
		}
	}()
	return s
}

// phaseMetrics adds ops_per_s, op_p50_us, op_p99_us, cpu_us_per_op and
// alloc_kb_per_op for a timed phase whose ops took lat and completed at
// done (both ns, done measured from s.start): each is the median over
// the phase's full windows. It records the sample counts and the drift
// check — the op rate of the first and second half of the windows — in
// the report.
func phaseMetrics(o *outcome, s *sampler, lat, done []int64) {
	<-s.done
	n, span := len(s.cpu)-1, window
	if n < 1 {
		// Shorter than one window (the smoke tests): one partial window.
		n, span = 1, time.Since(s.start)
		s.cpu = append(s.cpu, processCPU())
		s.alloc = append(s.alloc, allocatedBytes())
	}
	buckets := make([][]int64, n)
	for i, d := range done {
		if k := int(d / int64(span)); k < n {
			buckets[k] = append(buckets[k], lat[i])
		}
	}
	var rate, p50, p99, cpu, alloc []float64
	for k, b := range buckets {
		b = sortedCopy(b)
		ops := float64(len(b))
		rate = append(rate, ops/span.Seconds())
		p50 = append(p50, quantile(b, 0.50)/1e3)
		p99 = append(p99, quantile(b, 0.99)/1e3)
		cpu = append(cpu, ratio(float64(s.cpu[k+1]-s.cpu[k])/1e3, ops))
		alloc = append(alloc, ratio(float64(s.alloc[k+1]-s.alloc[k])/1024, ops))
	}
	o.metrics["ops_per_s"] = median(rate)
	o.metrics["op_p50_us"] = median(p50)
	o.metrics["op_p99_us"] = median(p99)
	o.metrics["cpu_us_per_op"] = median(cpu)
	o.metrics["alloc_kb_per_op"] = median(alloc)
	o.report["op_samples"] = len(lat)
	o.report["window_ops_per_s"] = rate
	o.report["min_window_samples"] = len(slices.MinFunc(buckets, func(a, b []int64) int { return len(a) - len(b) }))
	first, second := mean64(rate[:n/2]), mean64(rate[n-n/2:])
	o.report["ops_per_s_first_half"] = first
	o.report["ops_per_s_second_half"] = second
	o.report["drift_pct"] = 100 * ratio(second-first, first)
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	slices.Sort(s)
	return s
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func mean64(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// commitMetrics adds commit ack latency quantiles (nanosecond samples).
func commitMetrics(o *outcome, lat []int64) {
	s := sortedCopy(lat)
	o.metrics["commit_p50_ms"] = quantile(s, 0.50) / 1e6
	o.metrics["commit_p99_ms"] = quantile(s, 0.99) / 1e6
	o.report["commit_samples"] = len(lat)
}

// machineProfile identifies the hardware and toolchain a result was
// measured on, so results from different machines are not compared.
func machineProfile() map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"store_fs":   "ramFS (in-process RAM, tmpfs semantics: fsync is a no-op)",
		"cpu_model":  cpuModel(),
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(".", &st); err == nil {
		p["checkout_fs"] = fsName(st.Type)
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", magic)
}
