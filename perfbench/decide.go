package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/faultfs"
	"securewebcom/internal/gateway"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keynote/compile"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// opVocab is the operation vocabulary of the decide population. Every
// principal's token claims three of these operations; the gateway must
// deny the other five.
var opVocab = [...]string{"read", "write", "list", "export", "approve", "delete", "audit", "admin"}

const (
	jwtIssuer = "perfbench-idp"
	// bulkPool is the number of distinct bulk bodies the stream reuses.
	bulkPool = 64
	// unlimited is the per-principal rate and burst: the token buckets
	// must never refuse the benchmark's load.
	unlimited = 1e12
)

// decideReq is one generated /v1/decide request and its expected answer.
type decideReq struct {
	token int32  // index into decideInputs.bearers
	body  int32  // index into decideInputs.bodies
	want  uint64 // expected verdict of query i in bit i
}

// decideInputs is everything the decide workloads send: HS256 tokens
// for a zipfian population, request bodies, the request stream and the
// administrator's signed commits.
type decideInputs struct {
	secret  []byte
	tokens  []string
	bearers []string // "Bearer " + token
	bodies  [][]byte
	bodyOps [][]uint8 // operations of each body, as opVocab indices
	reqs    []decideReq
	admin   *adminInputs
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// scopeMask picks the three operations principal u's token claims.
func scopeMask(u uint64) uint8 {
	var m uint8
	for h, n := u, 0; n < 3; {
		h = splitmix(h)
		if b := uint8(1) << (h & 7); m&b == 0 {
			m |= b
			n++
		}
	}
	return m
}

func wantMask(ops []uint8, scope uint8) uint64 {
	var w uint64
	for i, op := range ops {
		if scope&(1<<op) != 0 {
			w |= 1 << i
		}
	}
	return w
}

func genDecide(cfg config, commits int) (*decideInputs, error) {
	sz := cfg.size
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &decideInputs{secret: make([]byte, 32)}
	rng.Read(in.secret)

	type query struct {
		Operation string `json:"operation"`
	}
	for i, op := range opVocab {
		in.bodies = append(in.bodies, []byte(fmt.Sprintf(`{"operation":%q}`, op)))
		in.bodyOps = append(in.bodyOps, []uint8{uint8(i)})
	}
	for b := 0; b < bulkPool; b++ {
		ops := make([]uint8, sz.bulkSize)
		qs := make([]query, sz.bulkSize)
		for j := range ops {
			ops[j] = uint8(rng.Intn(len(opVocab)))
			qs[j] = query{Operation: opVocab[ops[j]]}
		}
		body, err := json.Marshal(map[string][]query{"queries": qs})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.bodyOps = append(in.bodyOps, ops)
	}

	zipf := rand.NewZipf(rng, sz.zipfS, 1, uint64(sz.principals-1))
	tokenOf := map[uint64]int32{}
	exp := time.Now().Add(6 * time.Hour).Unix()
	in.reqs = make([]decideReq, sz.stream)
	for i := range in.reqs {
		u := zipf.Uint64()
		scope := scopeMask(u)
		ti, ok := tokenOf[u]
		if !ok {
			var claimed []string
			for op := range opVocab {
				if scope&(1<<op) != 0 {
					claimed = append(claimed, opVocab[op])
				}
			}
			tok, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
				Issuer:    jwtIssuer,
				Subject:   fmt.Sprintf("user-%d", u),
				Scope:     strings.Join(claimed, " "),
				ExpiresAt: exp,
			}, in.secret, nil)
			if err != nil {
				return nil, err
			}
			ti = int32(len(in.tokens))
			tokenOf[u] = ti
			in.tokens = append(in.tokens, tok)
			in.bearers = append(in.bearers, "Bearer "+tok)
		}
		r := decideReq{token: ti}
		if i%sz.bulkEvery == sz.bulkEvery-1 {
			r.body = int32(len(opVocab) + rng.Intn(bulkPool))
		} else {
			inScope := rng.Float64() < sz.inScope
			var cands []int32
			for op := range opVocab {
				if (scope&(1<<op) != 0) == inScope {
					cands = append(cands, int32(op))
				}
			}
			r.body = cands[rng.Intn(len(cands))]
		}
		r.want = wantMask(in.bodyOps[r.body], scope)
		in.reqs[i] = r
	}
	var err error
	in.admin, err = genAdmin(cfg.seed, sz, commits)
	return in, err
}

// decideCore is authzd's decision plane as realMain builds it, without
// the HTTP server: the engine over a root policy that trusts only the
// gateway's minting key, and the JWT bridge in front of it.
type decideCore struct {
	tel      *telemetry.Registry
	tracer   *telemetry.Tracer
	ks       *keys.KeyStore
	chk      *keynote.Checker
	engine   *authz.Engine
	verifier *jwtbridge.Verifier
	bridge   *jwtbridge.Bridge
}

func newDecideCore(in *decideInputs) (*decideCore, error) {
	c := &decideCore{tel: telemetry.NewRegistry(), tracer: telemetry.NewTracer(0), ks: keys.NewKeyStore()}
	signer, err := keys.Generate("Kgateway")
	if err != nil {
		return nil, err
	}
	c.ks.Add(signer)
	policy, err := keynote.New("POLICY", fmt.Sprintf("%q", signer.PublicID()), `app_domain=="WebCom";`)
	if err != nil {
		return nil, err
	}
	if c.chk, err = keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(c.ks)); err != nil {
		return nil, err
	}
	c.engine = authz.NewEngine(c.chk, authz.WithTelemetry(c.tel), authz.WithLayerName("gateway"))
	c.verifier = &jwtbridge.Verifier{Issuer: jwtIssuer, HS256Secret: in.secret}
	if c.bridge, err = jwtbridge.New(c.verifier, signer, c.engine, 0, c.tel); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *decideCore) gateway(svc *keycom.Service) (*gateway.Server, error) {
	return gateway.New(gateway.Config{
		Engine:           c.engine,
		Bridge:           c.bridge,
		KeyCOM:           svc,
		Tel:              c.tel,
		Tracer:           c.tracer,
		RatePerPrincipal: unlimited,
		Burst:            unlimited,
	})
}

// decideSys is a running authzd: the decision plane, the KeyCOM plane
// recovered from the seeded store, and the HTTP server on loopback.
type decideSys struct {
	*decideCore
	keycom *keycom.Service
	store  *keycom.Store
	hsrv   *http.Server
	served chan error
	url    string
}

func startDecide(in *decideInputs, fsys faultfs.FS, wrap func(http.Handler) http.Handler) (*decideSys, error) {
	core, err := newDecideCore(in)
	if err != nil {
		return nil, err
	}
	svc, st, err := buildKeyCOM(in.admin, core.ks, fsys)
	if err != nil {
		return nil, err
	}
	gw, err := core.gateway(svc)
	if err != nil {
		st.Close()
		return nil, err
	}
	var h http.Handler = gw
	if wrap != nil {
		h = wrap(gw)
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/", http.StripPrefix("/debug", telemetry.NewHandler(core.tel, core.tracer, nil)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &decideSys{
		decideCore: core,
		keycom:     svc,
		store:      st,
		hsrv:       &http.Server{Handler: mux},
		served:     make(chan error, 1),
		url:        "http://" + ln.Addr().String(),
	}
	go func() { s.served <- s.hsrv.Serve(ln) }()
	return s, nil
}

func (s *decideSys) close() error {
	s.hsrv.Close()
	<-s.served
	return s.store.Close()
}

// decideClient is the load generator's side of the HTTP connection.
type decideClient struct {
	in    *decideInputs
	url   string
	hc    *http.Client
	acked atomic.Uint64 // highest epoch a commit ack has reported
}

func newDecideClient(in *decideInputs, url string) *decideClient {
	return &decideClient{in: in, url: url, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     loaders,
			MaxIdleConnsPerHost: loaders,
			DisableCompression:  true,
		},
	}}
}

func (c *decideClient) post(path string, body []byte, bearer string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if bearer != "" {
		req.Header.Set("Authorization", bearer)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

type decideReply struct {
	Allowed   bool   `json:"allowed"`
	Epoch     uint64 `json:"epoch"`
	Decisions []struct {
		Allowed bool `json:"allowed"`
	} `json:"decisions"`
}

// check compares a /v1/decide reply with the oracle: the verdicts must
// equal r.want and the epoch must not be older than floor, the newest
// commit acknowledged before the request was sent. It returns the kind
// of mismatch, or "".
func (in *decideInputs) check(r *decideReq, status int, body []byte, floor uint64) string {
	if status != http.StatusOK {
		return fmt.Sprintf("decide status %d", status)
	}
	var rep decideReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return "decide reply"
	}
	if rep.Epoch < floor {
		return "stale epoch"
	}
	var got uint64
	if int(r.body) < len(opVocab) {
		if rep.Allowed {
			got = 1
		}
	} else {
		if len(rep.Decisions) != len(in.bodyOps[r.body]) {
			return "verdict"
		}
		for i, d := range rep.Decisions {
			if d.Allowed {
				got |= 1 << i
			}
		}
	}
	if got != r.want {
		return "verdict"
	}
	return ""
}

func (c *decideClient) decide(r *decideReq) string {
	floor := c.acked.Load()
	status, body, err := c.post("/v1/decide", c.in.bodies[r.body], c.in.bearers[r.token])
	if err != nil {
		return "decide transport"
	}
	return c.in.check(r, status, body, floor)
}

// commit posts one signed update and raises the acknowledged epoch.
func (c *decideClient) commit(body []byte) string {
	status, reply, err := c.post("/v1/credentials", body, "")
	if err != nil {
		return "commit transport"
	}
	var ack struct {
		Committed bool   `json:"committed"`
		Epoch     uint64 `json:"epoch"`
	}
	if status != http.StatusOK || json.Unmarshal(reply, &ack) != nil || !ack.Committed {
		return "commit refused"
	}
	for {
		cur := c.acked.Load()
		if ack.Epoch <= cur || c.acked.CompareAndSwap(cur, ack.Epoch) {
			return ""
		}
	}
}

// commitSchedule releases commits on a fixed open-loop schedule: commit
// k is due every·k after the phase starts, whatever the decides are
// doing. The load goroutines send a due commit before their next decide,
// one commit at a time, and its latency counts from when it was due.
type commitSchedule struct {
	bodies [][]byte
	every  time.Duration
	start  time.Time
	next   int // guarded by busy
	busy   atomic.Bool
}

func (s *commitSchedule) claim(now time.Time) (body []byte, due time.Time, ok bool) {
	if s == nil || !s.busy.CompareAndSwap(false, true) {
		return nil, due, false
	}
	if s.next < len(s.bodies) {
		due = s.start.Add(time.Duration(s.next) * s.every)
		if !now.Before(due) {
			s.next++
			return s.bodies[s.next-1], due, true
		}
	}
	s.busy.Store(false)
	return nil, due, false
}

// loadResult is what one drive produced.
type loadResult struct {
	lat        []int64 // decide latencies, ns
	done       []int64 // decide completion times from the phase start, ns
	commitLat  []int64 // commit ack latencies from when due, ns
	commitLate []int64 // how late each commit was sent, ns
	attempted  int64
	fails      map[string]int64
}

func (o *outcome) account(attempted int64, fails map[string]int64) {
	o.attempted += attempted
	for kind, n := range fails {
		o.fail(kind, n)
	}
}

// drive runs closed-loop decides on loaders goroutines, taking requests
// from the stream in order from *next, until dur has passed or the
// stream index reaches limit (limit < 0: no limit).
func (c *decideClient) drive(next *atomic.Int64, limit int64, dur time.Duration, sched *commitSchedule) *loadResult {
	start := time.Now()
	end := start.Add(dur)
	if sched != nil {
		sched.start = start
	}
	capHint := int(dur.Seconds()*20_000) + 1024
	if limit >= 0 {
		capHint = int(limit-next.Load())/loaders + 16
	}
	ws := make([]loadResult, loaders)
	var wg sync.WaitGroup
	for w := range ws {
		wg.Add(1)
		go func(lr *loadResult) {
			defer wg.Done()
			lr.fails = map[string]int64{}
			lr.lat = make([]int64, 0, capHint)
			lr.done = make([]int64, 0, capHint)
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				if body, due, ok := sched.claim(now); ok {
					kind := c.commit(body)
					acked := time.Now()
					sched.busy.Store(false)
					lr.attempted++
					if kind != "" {
						lr.fails[kind]++
						continue
					}
					lr.commitLat = append(lr.commitLat, int64(acked.Sub(due)))
					lr.commitLate = append(lr.commitLate, int64(now.Sub(due)))
					continue
				}
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				r := &c.in.reqs[i%int64(len(c.in.reqs))]
				t0 := time.Now()
				kind := c.decide(r)
				t1 := time.Now()
				lr.attempted++
				if kind != "" {
					lr.fails[kind]++
					continue
				}
				lr.lat = append(lr.lat, int64(t1.Sub(t0)))
				lr.done = append(lr.done, int64(t1.Sub(start)))
			}
		}(&ws[w])
	}
	wg.Wait()
	all := &loadResult{fails: map[string]int64{}}
	for _, lr := range ws {
		all.lat = append(all.lat, lr.lat...)
		all.commitLat = append(all.commitLat, lr.commitLat...)
		all.commitLate = append(all.commitLate, lr.commitLate...)
		all.done = append(all.done, lr.done...)
		all.attempted += lr.attempted
		for k, n := range lr.fails {
			all.fails[k] += n
		}
	}
	return all
}

// setupDecide builds authzd and warms it, repeatedly unless traced,
// tearing down all but the last; setup_s is the median. Each set-up
// recovers the seeded store, attaches it, starts the server, opens the
// connections and runs the warm-up prefix of the stream.
func setupDecide(cfg config, in *decideInputs, fsys faultfs.FS, wrap func(http.Handler) http.Handler, traced bool, o *outcome) (*decideSys, *decideClient, error) {
	var times []float64
	for {
		t0 := time.Now()
		sys, err := startDecide(in, fsys, wrap)
		if err != nil {
			return nil, nil, err
		}
		cl := newDecideClient(in, sys.url)
		var next atomic.Int64
		lr := cl.drive(&next, int64(cfg.size.warmup), time.Hour, nil)
		times = append(times, time.Since(t0).Seconds())
		o.account(lr.attempted, lr.fails)
		if traced || !cfg.size.moreSetups(times) {
			o.metrics["setup_s"] = median(times)
			o.report["setup_s_samples"] = times
			return sys, cl, nil
		}
		cl.hc.CloseIdleConnections()
		if err := sys.close(); err != nil {
			return nil, nil, err
		}
	}
}

// runDecide runs decide-zipf (churn false) or decide-churn.
func runDecide(cfg config, churn, traced bool) (*outcome, error) {
	sz := cfg.size
	o := newOutcome()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	every := time.Duration(float64(time.Second) / sz.commitRate)
	commits := sz.probeCommits
	if churn {
		commits = int(dur/every) + 2
	}
	in, err := genDecide(cfg, commits)
	if err != nil {
		return nil, err
	}
	fsys, err := seedStore(in.admin)
	if err != nil {
		return nil, err
	}
	// Drop the inputs this run no longer needs, so the collector does not
	// trace them while timed.
	in.admin.catalogue = nil
	if churn {
		in.admin.updates = nil
	} else {
		in.admin.bodies = nil
	}
	o.report["distinct_principals"] = len(in.tokens)
	base := liveHeap()

	var timer *handlerTimer
	var wrap func(http.Handler) http.Handler
	if traced {
		timer = &handlerTimer{}
		wrap = timer.wrap
	}
	sys, cl, err := setupDecide(cfg, in, fsys, wrap, traced, o)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	defer cl.hc.CloseIdleConnections()
	var next atomic.Int64
	next.Store(int64(sz.warmup))
	schedule := func(from, to int) *commitSchedule {
		if !churn {
			return nil
		}
		return &commitSchedule{bodies: in.admin.bodies[from:to], every: every}
	}

	if !traced {
		smp := startSampler(dur)
		lr := cl.drive(&next, -1, dur, schedule(0, commits))
		o.account(lr.attempted, lr.fails)
		phaseMetrics(o, smp, lr.lat, lr.done)
		commitLat := lr.commitLat
		if churn {
			o.report["commit_late_p50_us"] = quantile(sortedCopy(lr.commitLate), 0.5) / 1e3
			o.report["commit_late_max_us"] = quantile(sortedCopy(lr.commitLate), 1) / 1e3
		}
		lr = nil
		o.metrics["live_heap_mb"] = float64(int64(liveHeap())-int64(base)) / (1 << 20)
		if !churn {
			// decide-zipf sends no commits while timed; its commit metrics
			// time the running server's Service.Apply afterwards, caches
			// warm: a closed loop of one request at a time over loopback
			// measured the host's wake-up latency more than the commit.
			var failed int64
			commitLat, failed = applyAll(sys.keycom, in.admin.updates[:sz.probeCommits])
			o.attempted += int64(len(commitLat)) + failed
			o.fail("commit refused", failed)
		}
		commitMetrics(o, commitLat)
		return o, nil
	}

	// Traced: an untraced half, then a half with ServeHTTP timed and the
	// program's counters read, then in-process replays of the layers.
	half := dur / 2
	split := int(half/every) + 1
	lr0 := cl.drive(&next, -1, half, schedule(0, split))
	o.account(lr0.attempted, lr0.fails)
	timer.on.Store(true)
	c0 := readDecideCounters(sys.decideCore)
	t0 := time.Now()
	lr := cl.drive(&next, -1, half, schedule(split, commits))
	wall := time.Since(t0)
	timer.on.Store(false)
	c1 := readDecideCounters(sys.decideCore)
	o.account(lr.attempted, lr.fails)

	p50u := quantile(sortedCopy(lr0.lat), 0.5)
	p50t := quantile(sortedCopy(lr.lat), 0.5)
	o.metrics["telemetry.trace_overhead_pct"] = 100 * ratio(p50t-p50u, p50u)
	rtt := mean(lr.lat) / 1e3
	serve := timer.meanUs()
	o.metrics["gateway.http_us"] = rtt - serve
	d := c1.minus(c0)
	o.metrics["jwtbridge.mint_hit_ratio"] = ratio(float64(d.mintHits), float64(d.mintHits+d.mints))
	o.metrics["authz.session_miss_ratio"] = ratio(float64(d.dagHits+d.dagMisses), float64(len(lr.lat)))
	o.metrics["authz.decision_hit_ratio"] = ratio(float64(d.hits), float64(d.hits+d.misses))
	o.metrics["authz.invalidations_per_s"] = float64(d.invalidations) / wall.Seconds()

	perCommit := 0
	if churn && len(lr.commitLat) > 0 {
		perCommit = max(1, len(lr.lat)/len(lr.commitLat))
	}
	handlerUs, err := replayDecide(cfg, in, perCommit, o)
	if err != nil {
		return nil, err
	}
	wl := wlZipf
	if churn {
		wl = wlChurn
	}
	unattributed := rtt - o.metrics["gateway.http_us"] - handlerUs
	o.metrics[wl+".unattributed_us"] = unattributed
	o.metrics[wl+".unattributed_pct"] = 100 * ratio(unattributed, rtt)
	o.report["decides_per_commit"] = perCommit
	o.report["traced_rtt_us"] = rtt
	o.report["traced_serve_http_us"] = serve
	o.report["replay_handler_us"] = handlerUs
	return o, nil
}

// handlerTimer times ServeHTTP of /v1/decide while on.
type handlerTimer struct {
	on     atomic.Bool
	sum, n atomic.Int64
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.URL.Path != "/v1/decide" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.sum.Add(int64(time.Since(t0)))
		t.n.Add(1)
	})
}

func (t *handlerTimer) meanUs() float64 {
	return ratio(float64(t.sum.Load()), float64(t.n.Load())) / 1e3
}

// decideCounters are the program's own counters the per-layer ratios
// come from.
type decideCounters struct {
	mintHits, mints, dagHits, dagMisses int64
	hits, misses, invalidations         uint64
}

func readDecideCounters(c *decideCore) decideCounters {
	st := c.engine.Stats()
	return decideCounters{
		mintHits:      c.tel.Counter("gateway.bridge.mint_hits").Value(),
		mints:         c.tel.Counter("gateway.bridge.mints").Value(),
		dagHits:       c.tel.Counter("authz.compile.dag_cache.hits").Value(),
		dagMisses:     c.tel.Counter("authz.compile.dag_cache.misses").Value(),
		hits:          st.Hits,
		misses:        st.Misses,
		invalidations: st.Invalidations,
	}
}

func (a decideCounters) minus(b decideCounters) decideCounters {
	return decideCounters{
		mintHits:      a.mintHits - b.mintHits,
		mints:         a.mints - b.mints,
		dagHits:       a.dagHits - b.dagHits,
		dagMisses:     a.dagMisses - b.dagMisses,
		hits:          a.hits - b.hits,
		misses:        a.misses - b.misses,
		invalidations: a.invalidations - b.invalidations,
	}
}

// replayDecide replays the warm-up prefix (untimed) and the next
// replayOps requests of the stream in-process on two fresh decision
// planes, one goroutine, with an engine invalidation every perCommit
// requests (0: none) standing in for the commits. Plane A makes the
// gateway's calls one by one — Verify, Admit, Session, Decide or
// DecideBulk — and times each; plane B runs the whole gateway handler
// and measures its time and allocation. It returns B's mean handler
// time in µs and adds the layer metrics to o.
func replayDecide(cfg config, in *decideInputs, perCommit int, o *outcome) (float64, error) {
	from, n := cfg.size.warmup, cfg.size.replayOps
	invalidateAt := func(i int) bool {
		return perCommit > 0 && i >= from && (i-from)%perCommit == perCommit-1
	}
	ctx := context.Background()
	a, err := newDecideCore(in)
	if err != nil {
		return 0, err
	}
	var verify, hit, miss, session, single, compiled []int64
	var bulkNs, bulkQueries, layerNs, hitPathNs, missPathNs int64
	for i := 0; i < from+n; i++ {
		if invalidateAt(i) {
			a.engine.Invalidate()
		}
		r := &in.reqs[i%len(in.reqs)]
		tok := in.tokens[r.token]
		now := time.Now()
		t0 := time.Now()
		if _, err := a.verifier.Verify(now, tok); err != nil {
			return 0, err
		}
		t1 := time.Now()
		p, err := a.bridge.Admit(now, tok)
		if err != nil {
			return 0, err
		}
		t2 := time.Now()
		sess := a.engine.Session([]*keynote.Assertion{p.Credential})
		t3 := time.Now()
		ops := in.bodyOps[r.body]
		nowAttr := now.UTC().Truncate(a.bridge.Granularity).Format(time.RFC3339)
		qs := make([]keynote.Query, len(ops))
		for j, op := range ops {
			qs[j] = keynote.Query{Authorizers: []string{p.Name}, Attributes: map[string]string{
				"app_domain":       a.bridge.AppDomain,
				"operation":        opVocab[op],
				authz.NotAfterAttr: nowAttr,
			}}
		}
		t4 := time.Now()
		var got uint64
		if int(r.body) < len(opVocab) {
			d, err := sess.Decide(ctx, qs[0])
			if err != nil {
				return 0, err
			}
			if d.Allowed {
				got = 1
			}
		} else {
			ds, err := sess.DecideBulk(ctx, qs)
			if err != nil {
				return 0, err
			}
			for j, d := range ds {
				if d.Allowed {
					got |= 1 << j
				}
			}
		}
		t5 := time.Now()
		o.attempted++
		if got != r.want {
			o.fail("replay verdict", 1)
		}
		if i < from {
			continue
		}
		verify = append(verify, int64(t1.Sub(t0)))
		if p.CacheHit {
			hit = append(hit, int64(t2.Sub(t1)))
			hitPathNs += int64(t3.Sub(t1))
		} else {
			miss = append(miss, int64(t2.Sub(t1)))
			missPathNs += int64(t3.Sub(t1))
			tc := time.Now()
			if _, err := compile.Compile(a.chk.Policy(), []*keynote.Assertion{p.Credential}, a.chk.Resolver()); err != nil {
				return 0, err
			}
			compiled = append(compiled, int64(time.Since(tc)))
		}
		session = append(session, int64(t3.Sub(t2)))
		if len(qs) == 1 {
			single = append(single, int64(t5.Sub(t4)))
		} else {
			bulkNs += int64(t5.Sub(t4))
			bulkQueries += int64(len(qs))
		}
		layerNs += int64(t2.Sub(t1) + t3.Sub(t2) + t5.Sub(t4))
	}
	o.metrics["jwtbridge.verify_us"] = mean(verify) / 1e3
	o.metrics["jwtbridge.admit_hit_us"] = mean(hit) / 1e3
	o.metrics["jwtbridge.admit_miss_us"] = mean(miss) / 1e3
	o.metrics["authz.session_us"] = mean(session) / 1e3
	o.metrics["authz.decide_us"] = mean(single) / 1e3
	o.metrics["authz.bulk_us_per_query"] = ratio(float64(bulkNs), float64(bulkQueries)) / 1e3
	o.metrics["compile.compile_us"] = mean(compiled) / 1e3
	// The admission work per request, split by whether the mint cache
	// hit: a miss pays the mint and the session's compile, and its share
	// grows with the commit rate.
	o.report["replay_admit_miss_share"] = ratio(float64(len(miss)), float64(n))
	o.report["replay_miss_path_us_per_op"] = float64(missPathNs) / float64(n) / 1e3
	o.report["replay_hit_path_us_per_op"] = float64(hitPathNs) / float64(n) / 1e3
	o.report["replay_layer_us_per_op"] = float64(layerNs) / float64(n) / 1e3

	b, err := newDecideCore(in)
	if err != nil {
		return 0, err
	}
	gw, err := b.gateway(nil)
	if err != nil {
		return 0, err
	}
	const batch = 256
	var handler []int64
	var allocBytes uint64
	var allocCalls int
	for lo := 0; lo < from+n; lo += batch {
		hi := min(lo+batch, from+n)
		reqs := make([]*http.Request, hi-lo)
		recs := make([]*httptest.ResponseRecorder, hi-lo)
		for j := range reqs {
			r := &in.reqs[(lo+j)%len(in.reqs)]
			reqs[j] = httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(in.bodies[r.body]))
			reqs[j].Header.Set("Authorization", in.bearers[r.token])
			reqs[j].Header.Set("Content-Type", "application/json")
			recs[j] = httptest.NewRecorder()
		}
		a0 := allocatedBytes()
		for j := range reqs {
			if invalidateAt(lo + j) {
				b.engine.Invalidate()
			}
			t0 := time.Now()
			gw.ServeHTTP(recs[j], reqs[j])
			if lo+j >= from {
				handler = append(handler, int64(time.Since(t0)))
			}
		}
		if lo >= from {
			allocBytes += allocatedBytes() - a0
			allocCalls += hi - lo
		}
		for j, rec := range recs {
			r := &in.reqs[(lo+j)%len(in.reqs)]
			o.attempted++
			if kind := in.check(r, rec.Code, rec.Body.Bytes(), 0); kind != "" {
				o.fail("replay "+kind, 1)
			}
		}
	}
	handlerUs := mean(handler) / 1e3
	o.metrics["gateway.handler_self_us"] = handlerUs - float64(layerNs)/float64(n)/1e3
	o.metrics["gateway.handler_alloc_kb"] = ratio(float64(allocBytes)/1024, float64(allocCalls))
	return handlerUs, nil
}
