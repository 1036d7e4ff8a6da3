// Package authz is the compiled authorisation engine every Secure WebCom
// subsystem decides through: the stacked mediation layers, the WebCom
// master and client schedulers, and the KeyCOM administration service.
//
// The KeyNote compliance checker is correct but pays the full price —
// signature verification, principal canonicalisation, condition
// compilation, delegation fixpoint — on every call, even though a WebCom
// session's credentials are fixed at handshake. This package hoists that
// work out of the request path, the way grid security systems (Welch et
// al., Security for Grid Services) hoist credential validation out of
// job dispatch:
//
//   - a CredentialSession admits a credential set ONCE: signatures are
//     verified at admission, principals canonicalised through a memoized
//     resolver, conditions already compiled at parse time, and the whole
//     set content-fingerprinted so identical sets share one session;
//
//   - a Decision carries a structured Trace — per-layer verdicts, the
//     granting delegation chain, rejected credentials, timing — so a
//     denial can always answer "which layer said no, on which chain";
//
//   - an LRU decision cache keyed by (session fingerprint, canonical
//     query) makes repeat decisions O(map lookup), with explicit
//     invalidation hooks fired by KeyCOM catalogue commits.
package authz

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keynote/compile"
	"securewebcom/internal/telemetry"
)

// DefaultCacheSize bounds the decision cache when no option overrides it.
const DefaultCacheSize = 4096

// DefaultSessionCap bounds the admitted-session table: least recently
// used sessions are evicted once the engine holds this many, so a churn
// of one-shot principals cannot grow the table without bound. An
// evicted session's compiled DAG stays in the DAG cache, so re-admission
// pays signature verification but not recompilation.
const DefaultSessionCap = 1024

// DefaultDAGCacheSize bounds the cross-session compiled-DAG cache.
const DefaultDAGCacheSize = 256

// Engine wraps one keynote.Checker with memoised credential sessions and
// a shared decision cache. It is safe for concurrent use.
type Engine struct {
	checker   *keynote.Checker
	memo      *keynote.MemoResolver
	layerName string
	polHash   string

	sessions      *EpochCache[*CredentialSession] // by fingerprint
	cache         *EpochCache[*Decision]          // by fingerprint + query
	dags          *EpochCache[*compile.DAG]       // by fingerprint
	epoch         atomic.Uint64                   // bumped by Invalidate; see Epoch
	invalidations atomic.Uint64

	// Capacities, read once by NewEngine after the options ran.
	cacheSize, sessionCap, dagCacheSize int

	tel       *telemetry.Registry
	noCompile bool

	// Histograms, resolved once by NewEngine (nil without telemetry).
	decideLatency, bulkLatency, passes *telemetry.Histogram
}

// Option configures an Engine.
type Option func(*Engine)

// WithCacheSize sets the decision-cache capacity (entries).
func WithCacheSize(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.cacheSize = n
		}
	}
}

// WithSessionCap sets how many admitted sessions the engine retains
// (LRU-evicted beyond that; default DefaultSessionCap).
func WithSessionCap(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.sessionCap = n
		}
	}
}

// WithDAGCacheSize sets the capacity of the cross-session compiled-DAG
// cache (default DefaultDAGCacheSize). The cache lets a credential set
// readmitted after session eviction — a reconnecting WebCom client, a
// repeat KeyCOM administrator — skip the admission-time compile; it is
// keyed by credential-set fingerprint and dropped whole on every epoch
// bump, so no DAG compiled under one policy ever decides under another.
func WithDAGCacheSize(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.dagCacheSize = n
		}
	}
}

// WithLayerName sets the label decisions carry in their trace (default
// "L2:keynote"; KeyCOM uses "L2:keycom").
func WithLayerName(name string) Option {
	return func(e *Engine) { e.layerName = name }
}

// WithTelemetry mirrors the engine's counters into reg (authz.cache.hits,
// authz.cache.misses, authz.cache.invalidations) and records per-decision
// latency (authz.decide.latency, seconds) and delegation fixpoint passes
// (authz.fixpoint.passes) on cache misses. Nil reg disables mirroring.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(e *Engine) { e.tel = reg }
}

// WithoutCompilation disables the static compiler: sessions evaluate
// through the tree-walking interpreter only. Intended for differential
// testing and as an escape hatch; compilation is on by default.
func WithoutCompilation() Option {
	return func(e *Engine) { e.noCompile = true }
}

// NewEngine builds an engine over chk. The checker's resolver is wrapped
// in a memo table so principal canonicalisation is paid once per name,
// not once per query.
func NewEngine(chk *keynote.Checker, opts ...Option) *Engine {
	e := &Engine{
		checker:      chk,
		memo:         chk.MemoizeResolver(),
		layerName:    "L2:keynote",
		polHash:      policyHash(chk.Policy()),
		cacheSize:    DefaultCacheSize,
		sessionCap:   DefaultSessionCap,
		dagCacheSize: DefaultDAGCacheSize,
	}
	for _, o := range opts {
		o(e)
	}
	e.sessions = NewEpochCache[*CredentialSession](e, e.sessionCap, nil, "", "")
	e.cache = NewEpochCache[*Decision](e, e.cacheSize, e.tel, "authz.cache.hits", "authz.cache.misses")
	e.dags = NewEpochCache[*compile.DAG](e, e.dagCacheSize, e.tel, "authz.compile.dag_cache.hits", "authz.compile.dag_cache.misses")
	e.decideLatency = e.tel.Histogram("authz.decide.latency")
	e.bulkLatency = e.tel.Histogram("authz.decide.bulk.latency")
	e.passes = e.tel.Histogram("authz.fixpoint.passes")
	return e
}

// Checker returns the wrapped compliance checker.
func (e *Engine) Checker() *keynote.Checker { return e.checker }

// Session admits a credential set, verifying each credential's signature
// exactly once. Identical sets (by content fingerprint, order-blind)
// share one session, so a reconnecting client or a repeat administrator
// costs no re-verification.
func (e *Engine) Session(creds []*keynote.Assertion) *CredentialSession {
	fp := e.fingerprint(creds)
	s, epoch, ok := e.sessions.Get(fp)
	if ok {
		return s
	}

	// Admission runs outside the lock: signature verification is the
	// expensive part and must not serialise unrelated handshakes.
	s = &CredentialSession{engine: e, fp: fp}
	for _, cr := range creds {
		switch {
		case cr.IsPolicy():
			s.rejected = append(s.rejected, keynote.RejectedCredential{
				Authorizer: keynote.PolicyPrincipal,
				Reason:     "POLICY assertions cannot be submitted as credentials",
			})
		case e.checker.Verifies():
			if err := cr.VerifySignature(e.checker.Resolver()); err != nil {
				s.rejected = append(s.rejected, keynote.RejectedCredential{
					Authorizer: cr.Authorizer,
					Reason:     err.Error(),
				})
				continue
			}
			s.admitted = append(s.admitted, cr)
		default:
			s.admitted = append(s.admitted, cr)
		}
	}

	// Compile the admitted set to a decision DAG, still outside any
	// lock. The session fingerprint doubles as the compilation cache
	// key: identical sets share the session and therefore the DAG. A set
	// readmitted after session eviction (a reconnecting client) finds
	// its DAG in the cross-session cache and skips the compile entirely
	// — unless the epoch moved, which orphans every cached DAG at once.
	// Compilation failure is not an admission failure — the session
	// falls back to the interpreter.
	if !e.noCompile {
		if dag, dagEpoch, ok := e.dags.Get(fp); ok {
			s.compiled = dag
		} else if dag, err := compile.Compile(e.checker.Policy(), s.admitted, e.checker.Resolver()); err == nil {
			s.compiled = dag
			e.tel.Counter("authz.compile.sessions").Inc()
			e.dags.Put(fp, dag, dagEpoch)
		} else {
			e.tel.Counter("authz.compile.fallbacks").Inc()
		}
	}
	e.sessions.Put(fp, s, epoch)
	return s
}

// Invalidate advances the epoch, which retires every EpochCache entry
// guarded by this engine — admitted sessions, decisions, compiled DAGs,
// verdict sets, delegation mint and relint-skip tables — and flushes
// the resolver memo first, so no decision under the new epoch resolves
// through a pre-commit name. KeyCOM fires it on every catalogue commit;
// anything that changes policy inputs out from under the engine should
// too.
func (e *Engine) Invalidate() {
	if e.memo != nil {
		e.memo.Flush()
	}
	e.epoch.Add(1)
	e.invalidations.Add(1)
	e.tel.Counter("authz.cache.invalidations").Inc()
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	Sessions      int
	CacheEntries  int
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// Stats returns the engine's counters. Sessions and CacheEntries count
// live entries only.
func (e *Engine) Stats() Stats {
	hits, misses := e.cache.counts()
	return Stats{
		Sessions:      e.sessions.Len(),
		CacheEntries:  e.cache.Len(),
		Hits:          hits,
		Misses:        misses,
		Invalidations: e.invalidations.Load(),
	}
}

// fingerprint hashes the credential set (order-blind) together with the
// engine's policy hash, so a decision cache key pins both sides of the
// trust computation.
func (e *Engine) fingerprint(creds []*keynote.Assertion) string {
	texts := make([]string, len(creds))
	for i, c := range creds {
		texts[i] = c.Text()
	}
	sort.Strings(texts)
	h := sha256.New()
	h.Write([]byte(e.polHash))
	for _, t := range texts {
		h.Write([]byte(t))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func policyHash(policy []*keynote.Assertion) string {
	h := sha256.New()
	for _, p := range policy {
		h.Write([]byte(p.Text()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// CredentialSession is a credential set admitted by an Engine: verified
// once, fingerprinted, and ready to decide queries from the cache.
type CredentialSession struct {
	engine   *Engine
	fp       string
	admitted []*keynote.Assertion
	rejected []keynote.RejectedCredential
	compiled *compile.DAG // nil when compilation is disabled or failed
}

// Fingerprint identifies the admitted set's content (plus engine policy).
func (s *CredentialSession) Fingerprint() string { return s.fp }

// Admitted returns the credentials that survived admission.
func (s *CredentialSession) Admitted() []*keynote.Assertion { return s.admitted }

// Rejected returns the credentials refused at admission, with reasons.
func (s *CredentialSession) Rejected() []keynote.RejectedCredential { return s.rejected }

// CompiledOK reports whether this session decides through a compiled
// decision DAG (false: interpreter fallback).
func (s *CredentialSession) CompiledOK() bool { return s.compiled != nil }

// CompileStats returns the compiled DAG's statistics, ok=false when the
// session runs on the interpreter.
func (s *CredentialSession) CompileStats() (compile.Stats, bool) {
	if s.compiled == nil {
		return compile.Stats{}, false
	}
	return s.compiled.Stats(), true
}

// CompileFacts returns the static-analysis facts gathered while
// compiling this session's policy+credential set (nil on fallback).
func (s *CredentialSession) CompileFacts() []compile.Fact {
	if s.compiled == nil {
		return nil
	}
	return s.compiled.Facts()
}

// evaluate runs one compliance check through the compiled DAG when the
// session has one, else through the interpreter. Both paths are
// observationally identical (guarded by FuzzCompiledVsInterpreted).
func (s *CredentialSession) evaluate(q keynote.Query) (keynote.Result, error) {
	if s.compiled != nil {
		return s.compiled.Check(q)
	}
	return s.engine.checker.CheckPreverified(q, s.admitted)
}

// Decide answers the query from the decision cache, computing (and
// caching) it on a miss. The hot path performs no signature
// verification: that was paid once at admission. Callers must treat the
// returned Decision as immutable — cache hits share it.
func (s *CredentialSession) Decide(ctx context.Context, q keynote.Query) (*Decision, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Cache hits skip the span: they are already visible through
	// Trace.CacheHit and the latency histogram, and a span per hit would
	// dominate the cost of the hit itself on the delegation hot path.
	var buf [256]byte
	key := appendKey(buf[:0], s.fp, q)
	d, epoch, ok := s.engine.cache.lookup(key)
	if ok {
		s.engine.decideLatency.ObserveDuration(time.Since(start))
		return d, nil
	}
	_, span := telemetry.StartSpan(ctx, "authz.decide")
	defer span.Finish()
	defer func() {
		s.engine.decideLatency.ObserveDuration(time.Since(start))
	}()
	span.SetAttr("cache", "miss")
	res, err := s.evaluate(q)
	if err != nil {
		return nil, err
	}
	d = s.decisionOf(q, res, start)
	span.SetAttr("allowed", strconv.FormatBool(d.Allowed))
	s.engine.cache.Put(string(key), d.cached(), epoch)
	return d, nil
}

// cached returns the copy of d the decision cache holds: it differs
// only in Trace.CacheHit, and every hit shares it, so a hit copies
// nothing.
func (d *Decision) cached() *Decision {
	c := *d
	c.Trace.CacheHit = true
	return &c
}

// decisionOf wraps one compliance result in a Decision, prepending the
// session's admission rejections and recording the fixpoint-pass count.
func (s *CredentialSession) decisionOf(q keynote.Query, res keynote.Result, start time.Time) *Decision {
	s.engine.passes.Observe(float64(res.Passes))
	if len(s.rejected) > 0 {
		res.Rejected = append(append([]keynote.RejectedCredential{}, s.rejected...), res.Rejected...)
	}
	d := &Decision{
		Allowed: res.Authorized(q.Values),
		Value:   res.Value,
		Result:  res,
		Trace: Trace{
			Fingerprint:     s.fp,
			Elapsed:         time.Since(start),
			Chain:           res.Chain,
			Rejected:        res.Rejected,
			PrincipalValues: res.PrincipalValues,
		},
	}
	verdict := VerdictDeny
	if d.Allowed {
		verdict = VerdictGrant
	}
	d.Trace.Layers = []LayerTrace{{
		Layer:   s.engine.layerName,
		Verdict: verdict,
		Elapsed: d.Trace.Elapsed,
	}}
	return d
}

// batchKeys is the buffer a bulk decide renders its cache keys into:
// key i is buf[ends[i-1]:ends[i]].
type batchKeys struct {
	buf  []byte
	ends []int
}

var batchKeysPool = sync.Pool{New: func() any { return new(batchKeys) }}

// DecideBulk answers a batch of queries in one pass, amortising the
// per-decision overhead Decide pays: one span and one latency
// observation for the batch, a single cache transaction for all
// lookups and one for all inserts, and — on the compiled path — one
// reusable valuation for every miss instead of a pool round-trip per
// query. Decisions come back in query order; the whole batch fails on
// the first malformed query.
func (s *CredentialSession) DecideBulk(ctx context.Context, qs []keynote.Query) ([]*Decision, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, span := telemetry.StartSpan(ctx, "authz.decide.bulk")
	defer span.Finish()
	span.SetAttr("batch", strconv.Itoa(len(qs)))
	defer func() {
		s.engine.bulkLatency.ObserveDuration(time.Since(start))
	}()

	keys := batchKeysPool.Get().(*batchKeys)
	defer batchKeysPool.Put(keys)
	keys.buf, keys.ends = keys.buf[:0], keys.ends[:0]
	for i := range qs {
		keys.buf = appendKey(keys.buf, s.fp, qs[i])
		keys.ends = append(keys.ends, len(keys.buf))
	}
	out := make([]*Decision, len(qs))
	epoch := s.engine.cache.getBatch(keys.buf, keys.ends, func(i int, d *Decision) { out[i] = d })
	var missIdx []int
	for i, d := range out {
		if d == nil {
			missIdx = append(missIdx, i)
		}
	}
	span.SetAttr("hits", strconv.Itoa(len(qs)-len(missIdx)))
	if len(missIdx) == 0 {
		return out, nil
	}

	if s.compiled != nil {
		missQs := make([]keynote.Query, len(missIdx))
		for j, i := range missIdx {
			missQs[j] = qs[i]
		}
		results, err := s.compiled.CheckBatch(missQs)
		if err != nil {
			return nil, err
		}
		for j, i := range missIdx {
			out[i] = s.decisionOf(qs[i], results[j], start)
		}
	} else {
		for _, i := range missIdx {
			res, err := s.engine.checker.CheckPreverified(qs[i], s.admitted)
			if err != nil {
				return nil, err
			}
			out[i] = s.decisionOf(qs[i], res, start)
		}
	}

	missKeys := make([]string, len(missIdx))
	missDecisions := make([]*Decision, len(missIdx))
	for j, i := range missIdx {
		from := 0
		if i > 0 {
			from = keys.ends[i-1]
		}
		missKeys[j] = string(keys.buf[from:keys.ends[i]])
		missDecisions[j] = out[i].cached()
	}
	s.engine.cache.putBatch(missKeys, missDecisions, epoch)
	return out, nil
}

// appendKey appends q's decision-cache key under session fingerprint
// fp: fp and 0x00, then the canonical query — authorizers in given
// order (order is visible to conditions through _ACTION_AUTHORIZERS),
// attributes sorted by name, then the value ordering, with 0x1f/0x1e
// separators so no value can collide with a field boundary.
func appendKey(b []byte, fp string, q keynote.Query) []byte {
	b = append(append(b, fp...), 0)
	for _, a := range q.Authorizers {
		b = append(append(b, a...), 0x1f)
	}
	b = append(b, 0x1e)
	var spare [16]string
	names := spare[:0]
	for k := range q.Attributes {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		b = append(append(b, k...), 0x1f)
		b = append(append(b, q.Attributes[k]...), 0x1f)
	}
	b = append(b, 0x1e)
	for _, v := range q.Values {
		b = append(append(b, v...), 0x1f)
	}
	return b
}
