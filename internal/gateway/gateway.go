// Package gateway is the authorise-as-a-service front door: an HTTP
// surface over the repository's credential and decision planes. A web
// client presents a JWT; the gateway bridges it to a short-lived KeyNote
// principal (internal/gateway/jwtbridge), answers authorisation queries
// through the compiled authz.Engine — singly or in bulk — and accepts
// signed KeyCOM catalogue updates whose commits invalidate every
// decision cache downstream. This is the paper's trust-management
// middleware packaged the way governed SOA deployments consume policy
// decision points: one process, one wire protocol, explicit admission
// control.
//
// Endpoints:
//
//	POST /v1/decide       one decision, or a bulk batch ("queries")
//	POST /v1/credentials  signed keycom.UpdateRequest → durable commit
//	GET  /v1/status       version, epoch, engine and admission stats
//	GET  /healthz         liveness
//
// Every decide response carries the policy epoch it was decided under,
// so callers can observe a /v1/credentials commit flip the epoch and
// know exactly which cached verdicts died with it.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/telemetry"
)

// Version is the API version reported by /v1/status.
const Version = "1"

// DefaultMaxBodyBytes bounds request bodies.
const DefaultMaxBodyBytes = 1 << 20

// MaxBulkQueries bounds one bulk decide batch.
const MaxBulkQueries = 256

// Config assembles a Server.
type Config struct {
	// Engine answers decide queries (required).
	Engine *authz.Engine
	// Bridge admits JWT bearers as KeyNote principals (required).
	Bridge *jwtbridge.Bridge
	// KeyCOM, when non-nil, serves /v1/credentials; its commits are wired
	// to Engine.Invalidate so an accepted update flips the epoch.
	KeyCOM *keycom.Service
	// Tel receives gateway metrics and spans (nil disables).
	Tel *telemetry.Registry
	// Tracer, when non-nil, collects request spans.
	Tracer *telemetry.Tracer

	// MaxInFlight / MaxBulkInFlight configure the concurrency shedder
	// (<=0: defaults). Bulk requests draw from both budgets, so they are
	// shed first under pressure.
	MaxInFlight     int
	MaxBulkInFlight int
	// RatePerPrincipal / Burst configure the per-principal token buckets
	// (<=0: defaults). MaxPrincipals bounds the bucket table.
	RatePerPrincipal float64
	Burst            float64
	MaxPrincipals    int
	// MaxBodyBytes bounds request bodies (<=0: DefaultMaxBodyBytes); a
	// longer body is refused with 413.
	MaxBodyBytes int64
	// Now is the policy clock (nil: time.Now): token expiry, rate buckets
	// and the not_after attribute read it. Tests pin it. Latency is timed
	// on the monotonic clock whatever Now says.
	Now func() time.Time
}

// Server is the front door. It implements http.Handler.
type Server struct {
	engine  *authz.Engine
	bridge  *jwtbridge.Bridge
	keycom  *keycom.Service
	tracer  *telemetry.Tracer
	shed    *shedder
	buckets *tokenBuckets
	maxBody int64
	now     func() time.Time
	mux     *http.ServeMux

	// Metrics, resolved once by New (nil without a registry).
	decides, authRejects, shedCapacity, shedRate *telemetry.Counter
	credCommits, credRefusals                    *telemetry.Counter
	decideLatency                                *telemetry.Histogram
}

// New builds a Server and, when a KeyCOM service is present, wires its
// commits to the engine's invalidation.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("gateway: Config.Engine is required")
	}
	if cfg.Bridge == nil {
		return nil, errors.New("gateway: Config.Bridge is required")
	}
	if cfg.Bridge.Engine() != cfg.Engine {
		return nil, errors.New("gateway: Config.Bridge must admit into Config.Engine")
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Server{
		engine:  cfg.Engine,
		bridge:  cfg.Bridge,
		keycom:  cfg.KeyCOM,
		tracer:  cfg.Tracer,
		shed:    newShedder(cfg.MaxInFlight, cfg.MaxBulkInFlight),
		buckets: newTokenBuckets(cfg.RatePerPrincipal, cfg.Burst, cfg.MaxPrincipals),
		maxBody: maxBody,
		now:     now,

		decides:       cfg.Tel.Counter("gateway.decides"),
		authRejects:   cfg.Tel.Counter("gateway.auth.rejects"),
		shedCapacity:  cfg.Tel.Counter("gateway.shed.over capacity"),
		shedRate:      cfg.Tel.Counter("gateway.shed.rate limit"),
		credCommits:   cfg.Tel.Counter("gateway.credentials.commits"),
		credRefusals:  cfg.Tel.Counter("gateway.credentials.refusals"),
		decideLatency: cfg.Tel.Histogram("gateway.decide.latency"),
	}
	if s.keycom != nil {
		// A committed catalogue update must orphan every cached decision,
		// session and minted credential at once.
		s.keycom.OnCommit(s.engine.Invalidate)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/decide", s.handleDecide)
	s.mux.HandleFunc("POST /v1/credentials", s.handleCredentials)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// startSpan opens a handler's span under the server's tracer.
func (s *Server) startSpan(r *http.Request, name string) (context.Context, *telemetry.Span) {
	return telemetry.StartSpan(telemetry.WithTracer(r.Context(), s.tracer), name)
}

// ShedStats reports the admission-control counters.
type ShedStats struct {
	InFlight  int64 `json:"in_flight"`
	HighWater int64 `json:"high_water"`
	Admitted  int64 `json:"admitted"`
	Sheds     int64 `json:"sheds"`
}

// Shed returns a snapshot of the admission counters.
func (s *Server) Shed() ShedStats {
	return ShedStats{
		InFlight:  s.shed.inFlight.Load(),
		HighWater: s.shed.highWater.Load(),
		Admitted:  s.shed.admitted.Load(),
		Sheds:     s.shed.sheds.Load(),
	}
}

// errorBody is every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeBody sends a 200 reply rendered by the /v1/decide codec.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// failBody refuses a request whose body could not be read or decoded:
// 413 when it is over the size cap or the bulk bound, else 400.
func (s *Server) failBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		s.fail(w, http.StatusRequestEntityTooLarge, "body over %d bytes", tooLarge.Limit)
	case errors.Is(err, errTooManyQueries):
		s.fail(w, http.StatusRequestEntityTooLarge, "%v", err)
	default:
		s.fail(w, http.StatusBadRequest, "decode: %v", err)
	}
}

// shedReply refuses a request with 429 and a Retry-After hint; the
// request has done no work yet, so retrying is always safe.
func (s *Server) shedReply(w http.ResponseWriter, retryAfter time.Duration, why string, sheds *telemetry.Counter) {
	w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
	sheds.Inc()
	s.fail(w, http.StatusTooManyRequests, "shed: %s", why)
}

// bearer extracts the Authorization bearer token.
func bearer(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(h[len(prefix):]), true
}

// decideRequest is the /v1/decide body: either one query (Operation
// set) or a bulk batch (Queries set). Setting both is an error. The
// codec (codec.go) decodes it by hand; its json tags define the shape
// the decoder is checked against.
type decideRequest struct {
	Operation  string            `json:"operation,omitempty"`
	Attributes map[string]string `json:"attributes,omitempty"`
	Queries    []decideQuery     `json:"queries,omitempty"`
}

type decideQuery struct {
	Operation  string            `json:"operation"`
	Attributes map[string]string `json:"attributes,omitempty"`
}

// decideResult is one decision on the wire. It, decideResponse and
// bulkResponse define the reply shapes; the codec renders them by hand,
// byte-identical to json.Encoder's rendering of these types.
type decideResult struct {
	Allowed  bool   `json:"allowed"`
	Value    string `json:"value"`
	CacheHit bool   `json:"cache_hit"`
}

type decideResponse struct {
	decideResult
	Epoch     uint64 `json:"epoch"`
	Principal string `json:"principal"`
}

type bulkResponse struct {
	Decisions []decideResult `json:"decisions"`
	Epoch     uint64         `json:"epoch"`
	Principal string         `json:"principal"`
}

// reservedAttrs are query attributes the gateway stamps itself; a
// client supplying them could widen its own authority.
var reservedAttrs = [...]string{"app_domain", "operation", authz.NotAfterAttr}

// stampQuery completes a decoded query's attributes in place (a nil map
// is allocated): it refuses reserved names and an empty operation, then
// stamps the application domain, the operation and the not_after
// instant.
func (s *Server) stampQuery(attrs map[string]string, op, nowAttr string) (map[string]string, error) {
	if op == "" {
		return attrs, errors.New("operation is required")
	}
	for _, k := range reservedAttrs {
		if _, ok := attrs[k]; ok {
			return attrs, fmt.Errorf("attribute %q is reserved", k)
		}
	}
	if attrs == nil {
		attrs = make(map[string]string, len(reservedAttrs))
	}
	attrs["app_domain"] = s.bridge.AppDomain
	attrs["operation"] = op
	attrs[authz.NotAfterAttr] = nowAttr
	return attrs, nil
}

// nowAttr renders the current instant for the query's expiry attribute,
// truncated to the bridge's bucket granularity so decisions stay
// cacheable within a bucket. Expiry is therefore enforced at bucket
// resolution: a credential may be honoured up to one granularity past
// its bound, never more.
func (s *Server) nowAttr(now time.Time) string {
	g := s.bridge.Granularity
	if g <= 0 {
		g = jwtbridge.DefaultGranularity
	}
	return now.UTC().Truncate(g).Format(time.RFC3339)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now() // monotonic, for the latency histogram
	now := s.now()      // the policy clock
	ctx, span := s.startSpan(r, "gateway.decide")
	defer span.Finish()

	// Parse first: whether the request is bulk decides which shedder
	// budget it draws from. The body is hard-bounded, so a hostile
	// payload cannot balloon the parse.
	sc := statePool.Get().(*decideState)
	defer sc.release()
	if err := sc.read(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		s.failBody(w, err)
		return
	}
	req := &sc.req
	bulk := len(req.Queries) > 0
	if bulk && req.Operation != "" {
		s.fail(w, http.StatusBadRequest, "set either operation or queries, not both")
		return
	}
	span.SetAttr("bulk", strconv.FormatBool(bulk))

	// Admission, cheapest refusal first: the concurrency shedder runs
	// before the signature on the bearer token is ever checked. A shed
	// request has touched no engine or bridge state — it is never
	// half-executed.
	slot, ok := s.shed.acquire(bulk)
	if !ok {
		span.SetAttr("shed", "concurrency")
		s.shedReply(w, ShedRetryAfter, "over capacity", s.shedCapacity)
		return
	}
	defer slot.release()

	tok, ok := bearer(r)
	if !ok {
		s.fail(w, http.StatusUnauthorized, "missing bearer token")
		return
	}
	p, err := s.bridge.Admit(now, tok)
	if err != nil {
		s.authRejects.Inc()
		s.fail(w, http.StatusUnauthorized, "%v", err)
		return
	}
	span.SetAttr("principal", p.Name)

	allowed, wait := s.buckets.allow(p.Name, now)
	if !allowed {
		span.SetAttr("shed", "rate")
		s.shedReply(w, wait, "rate limit", s.shedRate)
		return
	}

	nowAttr := s.nowAttr(now)
	epoch := s.engine.Epoch()
	sc.who[0] = p.Name

	if !bulk {
		req.Attributes, err = s.stampQuery(req.Attributes, req.Operation, nowAttr)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		d, err := p.Session.Decide(ctx, keynote.Query{Authorizers: sc.who[:], Attributes: req.Attributes})
		if err != nil {
			s.fail(w, http.StatusInternalServerError, "decide: %v", err)
			return
		}
		s.observeDecide(start, 1)
		sc.out = appendDecideReply(sc.out[:0], d, epoch, p.Name)
		writeBody(w, sc.out)
		return
	}

	for i := range req.Queries {
		dq := &req.Queries[i]
		if dq.Attributes, err = s.stampQuery(dq.Attributes, dq.Operation, nowAttr); err != nil {
			s.fail(w, http.StatusBadRequest, "query %d: %v", i, err)
			return
		}
		sc.qs = append(sc.qs, keynote.Query{Authorizers: sc.who[:], Attributes: dq.Attributes})
	}
	ds, err := p.Session.DecideBulk(ctx, sc.qs)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "decide bulk: %v", err)
		return
	}
	s.observeDecide(start, len(ds))
	sc.out = appendBulkReply(sc.out[:0], ds, epoch, p.Name)
	writeBody(w, sc.out)
}

func (s *Server) observeDecide(start time.Time, n int) {
	s.decides.Add(int64(n))
	s.decideLatency.ObserveDuration(time.Since(start))
}

// credentialsResponse acknowledges a committed catalogue update.
type credentialsResponse struct {
	Committed bool   `json:"committed"`
	Epoch     uint64 `json:"epoch"`
}

func (s *Server) handleCredentials(w http.ResponseWriter, r *http.Request) {
	ctx, span := s.startSpan(r, "gateway.credentials")
	defer span.Finish()
	if s.keycom == nil {
		s.fail(w, http.StatusServiceUnavailable, "no credential plane configured")
		return
	}
	var req keycom.UpdateRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.failBody(w, err)
		return
	}
	if err := s.keycom.Apply(ctx, &req); err != nil {
		s.credRefusals.Inc()
		span.SetAttr("refused", "true")
		// Authorisation and lint refusals are the caller's fault; anything
		// else (store, middleware) is ours.
		code := http.StatusForbidden
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = http.StatusServiceUnavailable
		}
		s.fail(w, code, "%v", err)
		return
	}
	s.credCommits.Inc()
	// The epoch in the ack is the post-commit epoch: the caller can watch
	// it advance past the epoch of any earlier decide response.
	s.writeJSON(w, http.StatusOK, credentialsResponse{Committed: true, Epoch: s.engine.Epoch()})
}

// statusResponse is the /v1/status body.
type statusResponse struct {
	Version string      `json:"version"`
	Epoch   uint64      `json:"epoch"`
	Signer  string      `json:"signer"`
	Engine  authz.Stats `json:"engine"`
	Shed    ShedStats   `json:"shed"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, statusResponse{
		Version: Version,
		Epoch:   s.engine.Epoch(),
		Signer:  s.bridge.Signer(),
		Engine:  s.engine.Stats(),
		Shed:    s.Shed(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}
