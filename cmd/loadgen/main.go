// Command loadgen drives an authzd front door with synthetic
// planetary-scale load: a configurable population of JWT principals
// (default one million) whose request popularity is zipfian — a hot
// head of users reuses bridge-minted credentials while a long tail
// forces fresh mints — issued through a hybrid open/closed-loop
// generator.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8443 -secret-hex <hex> \
//	    [-issuer authzd-demo-idp] [-users 1000000] [-workers 64] \
//	    [-rate 0] [-duration 10s] [-requests 0] [-bulk 0] \
//	    [-zipf-s 1.2] [-seed 1] [-scope "echo add"]
//
// With -rate 0 the generator is purely closed-loop: -workers
// goroutines each keep exactly one request outstanding, so offered
// load self-limits to the server's capacity (the classic benchmarking
// loop). With -rate > 0 it is open-loop: arrivals fire at the given
// rate into a bounded queue the workers drain; when the server falls
// behind and the queue fills, further arrivals are counted as dropped
// rather than queued without bound. Open-loop latency runs from each
// arrival's scheduled send time, so time spent queued behind a slow
// server counts (no coordinated omission). Latency quantiles are
// computed over admitted (200) responses only; 429s are tallied as
// sheds.
//
// The run ends after -duration (or -requests, whichever comes first)
// and prints a single JSON summary line to stdout for machines (CI
// gates parse it) plus a human-readable recap to stderr.
package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/gateway/jwtbridge"
)

type config struct {
	target    string
	secretHex string
	secretFil string
	issuer    string
	users     int
	workers   int
	rate      float64
	duration  time.Duration
	requests  int64
	bulk      int
	zipfS     float64
	seed      int64
	scope     string
	queueCap  int
}

// summary is the machine-readable result, one JSON line on stdout.
type summary struct {
	Target        string  `json:"target"`
	Users         int     `json:"users"`
	Workers       int     `json:"workers"`
	RatePerSec    float64 `json:"rate_per_sec"`
	DurationSec   float64 `json:"duration_sec"`
	Requests      int64   `json:"requests"`
	OK            int64   `json:"ok"`
	Shed          int64   `json:"shed"`
	Errors        int64   `json:"errors"`
	Dropped       int64   `json:"dropped"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	DistinctUsers int     `json:"distinct_users"`
}

func main() {
	cfg := parseFlags(os.Args[1:])
	sum, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(sum)
	fmt.Println(string(out))
	if sum.Errors > 0 {
		os.Exit(2)
	}
}

func parseFlags(args []string) config {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	fs.StringVar(&cfg.target, "target", "http://127.0.0.1:8443", "authzd base URL")
	fs.StringVar(&cfg.secretHex, "secret-hex", "", "HS256 shared secret in hex (as authzd's demo mode prints)")
	fs.StringVar(&cfg.secretFil, "secret-file", "", "file holding the HS256 shared secret bytes")
	fs.StringVar(&cfg.issuer, "issuer", "authzd-demo-idp", "iss claim on minted tokens")
	fs.IntVar(&cfg.users, "users", 1_000_000, "synthetic principal population")
	fs.IntVar(&cfg.workers, "workers", 64, "closed-loop worker goroutines")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrivals per second (0: pure closed loop)")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "run length")
	fs.Int64Var(&cfg.requests, "requests", 0, "request cap (0: duration-bound)")
	fs.IntVar(&cfg.bulk, "bulk", 0, "bulk batch size (0: single decides)")
	fs.Float64Var(&cfg.zipfS, "zipf-s", 1.2, "zipf skew (>1; larger = hotter head)")
	fs.Int64Var(&cfg.seed, "seed", 1, "deterministic user-pick seed")
	fs.StringVar(&cfg.scope, "scope", "echo add", "space-separated operations claimed in tokens")
	fs.IntVar(&cfg.queueCap, "queue", 4096, "open-loop arrival queue bound")
	fs.Parse(args)
	return cfg
}

// run executes the load and returns the summary. Progress and the
// human recap go to log; the caller prints the JSON.
func run(cfg config, log io.Writer) (*summary, error) {
	secret, err := loadSecret(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.users < 1 || cfg.workers < 1 {
		return nil, fmt.Errorf("need at least one user and one worker")
	}
	if cfg.zipfS <= 1 {
		return nil, fmt.Errorf("-zipf-s must be > 1")
	}
	ops := strings.Fields(cfg.scope)
	if len(ops) == 0 {
		return nil, fmt.Errorf("-scope must name at least one operation")
	}

	gen := newTokenCache(secret, cfg.issuer, cfg.scope)
	bodies := buildBodies(ops, cfg.bulk)

	// The zipf source is shared; a mutex keeps it deterministic for a
	// given seed regardless of worker interleaving of the pick stream.
	var pickMu sync.Mutex
	zipf := rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), cfg.zipfS, 1, uint64(cfg.users-1))
	pick := func() uint64 {
		pickMu.Lock()
		defer pickMu.Unlock()
		return zipf.Uint64()
	}

	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	var (
		issued    atomic.Int64
		ok200     atomic.Int64
		shed429   atomic.Int64
		errors    atomic.Int64
		dropped   atomic.Int64
		latMu     sync.Mutex
		latencies []time.Duration
	)
	deadline := time.Now().Add(cfg.duration)
	budget := func() bool {
		if cfg.requests > 0 && issued.Load() >= cfg.requests {
			return false
		}
		return time.Now().Before(deadline)
	}

	// shoot sends one request and times it from due, when it was meant
	// to go out, so an open-loop arrival counts its wait in the queue.
	shoot := func(user uint64, opIdx int, due time.Time) {
		tok := gen.token(user)
		req, err := http.NewRequest(http.MethodPost, cfg.target+"/v1/decide",
			bytes.NewReader(bodies[opIdx%len(bodies)]))
		if err != nil {
			errors.Add(1)
			return
		}
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := client.Do(req)
		if err != nil {
			errors.Add(1)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		elapsed := time.Since(due)
		switch resp.StatusCode {
		case http.StatusOK:
			ok200.Add(1)
			latMu.Lock()
			latencies = append(latencies, elapsed)
			latMu.Unlock()
		case http.StatusTooManyRequests:
			shed429.Add(1)
		default:
			errors.Add(1)
		}
	}

	// next hands a worker its next request and the instant it was due.
	// Closed loop: each worker keeps one request outstanding.
	type arrival struct {
		user uint64
		due  time.Time
	}
	next := func() (arrival, bool) {
		if !budget() {
			return arrival{}, false
		}
		issued.Add(1)
		return arrival{pick(), time.Now()}, true
	}
	// Open loop: arrival i is due at startedAt + i·interval, not at a
	// ticker's tick (a ticker drops ticks under load), and waits in a
	// bounded queue the workers drain; a full queue drops the arrival,
	// so a slow server cannot make the client accumulate unbounded
	// backlog.
	var queue chan arrival
	if cfg.rate > 0 {
		queue = make(chan arrival, cfg.queueCap)
		next = func() (arrival, bool) { a, ok := <-queue; return a, ok }
	}

	startedAt := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for a, ok := next(); ok; a, ok = next() {
				n++
				shoot(a.user, n, a.due)
			}
		}(w)
	}
	if queue != nil {
		interval := time.Duration(float64(time.Second) / cfg.rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		for i := time.Duration(0); budget(); i++ {
			due := startedAt.Add(i * interval)
			time.Sleep(time.Until(due))
			issued.Add(1)
			select {
			case queue <- arrival{pick(), due}:
			default:
				dropped.Add(1)
			}
		}
		close(queue)
	}
	wg.Wait()
	elapsed := time.Since(startedAt)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return float64(latencies[int(p*float64(len(latencies)-1))]) / float64(time.Millisecond)
	}
	sum := &summary{
		Target:        cfg.target,
		Users:         cfg.users,
		Workers:       cfg.workers,
		RatePerSec:    cfg.rate,
		DurationSec:   elapsed.Seconds(),
		Requests:      issued.Load(),
		OK:            ok200.Load(),
		Shed:          shed429.Load(),
		Errors:        errors.Load(),
		Dropped:       dropped.Load(),
		P50Ms:         q(0.50),
		P95Ms:         q(0.95),
		P99Ms:         q(0.99),
		DistinctUsers: gen.distinct(),
	}
	if elapsed > 0 {
		sum.ThroughputRPS = float64(sum.OK) / elapsed.Seconds()
	}
	fmt.Fprintf(log, "loadgen: %d requests in %.1fs (%d ok, %d shed, %d errors, %d dropped), %.0f rps, p50 %.1fms p95 %.1fms p99 %.1fms, %d distinct users\n",
		sum.Requests, sum.DurationSec, sum.OK, sum.Shed, sum.Errors, sum.Dropped,
		sum.ThroughputRPS, sum.P50Ms, sum.P95Ms, sum.P99Ms, sum.DistinctUsers)
	return sum, nil
}

func loadSecret(cfg config) ([]byte, error) {
	switch {
	case cfg.secretHex != "":
		s, err := hex.DecodeString(cfg.secretHex)
		if err != nil {
			return nil, fmt.Errorf("-secret-hex: %w", err)
		}
		return s, nil
	case cfg.secretFil != "":
		s, err := os.ReadFile(cfg.secretFil)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, fmt.Errorf("pass -secret-hex or -secret-file (authzd's demo mode prints the former)")
}

// buildBodies pre-marshals the request bodies (single or bulk) so the
// measured loop spends no client CPU on encoding.
func buildBodies(ops []string, bulk int) [][]byte {
	type query struct {
		Operation string `json:"operation"`
	}
	bodies := make([][]byte, len(ops))
	for i, op := range ops {
		var v any
		if bulk > 0 {
			qs := make([]query, bulk)
			for j := range qs {
				qs[j] = query{Operation: ops[(i+j)%len(ops)]}
			}
			v = map[string]any{"queries": qs}
		} else {
			v = query{Operation: op}
		}
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain data cannot fail to marshal
		}
		bodies[i] = b
	}
	return bodies
}

// tokenCache lazily mints one JWT per user and reuses it for the run:
// the hot zipfian head therefore exercises the server's admission cache the
// way real repeat visitors do, while the cold tail forces fresh mints.
type tokenCache struct {
	secret []byte
	issuer string
	scope  string
	exp    int64
	m      sync.Map // uint64 → string
	n      atomic.Int64
}

func newTokenCache(secret []byte, issuer, scope string) *tokenCache {
	return &tokenCache{
		secret: secret,
		issuer: issuer,
		scope:  scope,
		exp:    time.Now().Add(time.Hour).Unix(),
	}
}

func (tc *tokenCache) token(user uint64) string {
	if v, ok := tc.m.Load(user); ok {
		return v.(string)
	}
	tok, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
		Issuer:    tc.issuer,
		Subject:   fmt.Sprintf("user-%d", user),
		Scope:     tc.scope,
		ExpiresAt: tc.exp,
	}, tc.secret, nil)
	if err != nil {
		panic(err) // HS256 signing of plain claims cannot fail
	}
	if _, loaded := tc.m.LoadOrStore(user, tok); !loaded {
		tc.n.Add(1)
	}
	return tok
}

func (tc *tokenCache) distinct() int { return int(tc.n.Load()) }
