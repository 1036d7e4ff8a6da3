// Package keycom implements the KeyCOM automated administration service
// of Figure 8: a service that accepts policy update requests accompanied
// by KeyNote credentials and, when the credentials authorise the change,
// updates the local middleware security configuration (the COM+
// catalogue in the paper's example; any middleware.System here).
//
// KeyCOM "acts, in effect, as an automated Windows/COM administrator,
// processing client authorisation requests, while the KeyNote
// cryptographic credentials facilitate users in delegating authorisation
// without requiring assistance of non-automated (that is, human)
// administrators."
//
// Authorisation model: each requested row change is checked against the
// service's KeyNote policy with the action attribute set
//
//	app_domain = "KeyCOM"
//	action     = add-role-perm | remove-role-perm |
//	             add-user-role | remove-user-role
//	Domain, Role, ObjectType, Permission, User (as applicable)
//
// so an administrator can delegate narrow authority ("may add users to
// the Finance/Manager role") with an ordinary KeyNote credential.
package keycom

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/netserve"
	"securewebcom/internal/policylint"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/translate"
)

// AppDomain is the KeyNote application domain of KeyCOM queries.
const AppDomain = "KeyCOM"

// Actions named in the authorisation attribute set.
const (
	ActionAddRolePerm    = "add-role-perm"
	ActionRemoveRolePerm = "remove-role-perm"
	ActionAddUserRole    = "add-user-role"
	ActionRemoveUserRole = "remove-user-role"
)

// UpdateRequest is one policy update: a requester, the change set, the
// requester's supporting credentials, and a signature binding the
// requester to the change.
type UpdateRequest struct {
	Requester   string    `json:"requester"`
	Diff        rbac.Diff `json:"diff"`
	Credentials []string  `json:"credentials,omitempty"`
	Sig         string    `json:"sig"`
}

// payload returns the signed byte string: everything except the
// signature, deterministically encoded.
func (r *UpdateRequest) payload() []byte {
	cp := *r
	cp.Sig = ""
	b, err := json.Marshal(&cp)
	if err != nil {
		// Only unmarshalable custom types could fail; Diff is plain data.
		panic(fmt.Sprintf("keycom: marshal payload: %v", err))
	}
	return append([]byte("keycom-update|"), b...)
}

// Sign signs the request with the requester's key.
func (r *UpdateRequest) Sign(kp *keys.KeyPair) error {
	if r.Requester != kp.PublicID() {
		return fmt.Errorf("keycom: requester %q is not key %q", r.Requester, kp.Name)
	}
	r.Sig = kp.Sign(r.payload())
	return nil
}

// Verify checks the request signature.
func (r *UpdateRequest) Verify() error {
	if r.Sig == "" {
		return errors.New("keycom: unsigned update request")
	}
	return keys.Verify(r.Requester, r.payload(), r.Sig)
}

// Service is a KeyCOM administration service for one middleware system.
type Service struct {
	// System is the middleware installation being administered.
	System middleware.System
	// Checker holds the service's administration policy.
	Checker *keynote.Checker
	// LintVocab, when non-nil, enables the pre-commit lint gate
	// (decentralisation with guardrails): before any authorised diff is
	// applied, the resulting catalogue is re-encoded as KeyNote and run
	// through internal/policylint against this vocabulary. Updates whose
	// resulting credential set lints with errors are refused atomically —
	// the catalogue is left exactly as it was.
	LintVocab *policylint.Vocabulary
	// Tel, when non-nil, receives commit metrics: keycom.commits,
	// keycom.refusals and the keycom.commit.latency histogram
	// (seconds). A nil registry disables all instrumentation.
	Tel *telemetry.Registry
	// Store, when non-nil, is the durable catalogue: every authorised
	// diff is committed (WAL + audit chain, fsynced) before it touches
	// System, so an acknowledged update survives any crash. Wire it with
	// AttachStore, which also replays recovered state into System.
	Store *Store

	engOnce sync.Once
	eng     *authz.Engine
	audit   *authz.AuditLog

	mu sync.Mutex // serialises policy updates

	hookMu sync.Mutex // guards hooks registration
	hooks  []func()   // fired after every committed catalogue change

	// Commit hooks fire outside s.mu (a hook that touched the service
	// would otherwise deadlock — recovery replay re-fires them through
	// the same path), but still strictly in commit order: each commit
	// takes a ticket under s.mu and the turnstile below admits tickets
	// one at a time.
	turnMu   sync.Mutex
	turnCond *sync.Cond
	ticket   uint64 // last ticket issued (under s.mu)
	turnDone uint64 // last ticket whose hooks finished (under turnMu)
}

// NewService creates a KeyCOM service.
func NewService(sys middleware.System, chk *keynote.Checker) *Service {
	return &Service{System: sys, Checker: chk}
}

// Engine returns the service's authorisation engine (lazily built from
// Checker). Each administrator's credential set is admitted into a
// session once; per-row decisions come from the decision cache.
func (s *Service) Engine() *authz.Engine {
	s.engOnce.Do(func() {
		if s.Checker != nil {
			s.eng = authz.NewEngine(s.Checker, authz.WithLayerName("L2:keycom"))
		}
		s.audit = authz.NewAuditLog(256)
	})
	return s.eng
}

// Audit returns the service's denial log: refused row changes with full
// decision traces.
func (s *Service) Audit() *authz.AuditLog {
	s.Engine()
	return s.audit
}

// OnCommit registers a hook fired after every successfully applied
// catalogue update. Consumers whose authorisation decisions depend on
// the catalogue — a WebCom master's engine, a stack's trust layer —
// register their Engine.Invalidate here so a KeyCOM commit flushes
// their decision caches.
//
// Hooks run outside the service lock, in commit order; a hook may query
// the service or register further hooks, but must not call Apply
// synchronously (the next commit's hooks wait for it to return).
func (s *Service) OnCommit(fn func()) {
	s.hookMu.Lock()
	s.hooks = append(s.hooks, fn)
	s.hookMu.Unlock()
}

// Apply validates and applies an update request. Either the whole diff is
// authorised and applied atomically, or nothing changes. The context
// carries the request-scoped trace into the per-row authorisation
// decisions and the middleware commit.
func (s *Service) Apply(ctx context.Context, req *UpdateRequest) error {
	ctx, span := telemetry.StartSpan(ctx, "keycom.apply")
	defer span.Finish()
	start := time.Now()
	err := s.apply(ctx, req)
	if err != nil {
		span.SetAttr("refused", "true")
		s.Tel.Counter("keycom.refusals").Inc()
	} else {
		s.Tel.Counter("keycom.commits").Inc()
		s.Tel.Histogram("keycom.commit.latency").ObserveDuration(time.Since(start))
	}
	return err
}

func (s *Service) apply(ctx context.Context, req *UpdateRequest) error {
	if err := req.Verify(); err != nil {
		return err
	}
	creds := make([]*keynote.Assertion, 0, len(req.Credentials))
	for _, text := range req.Credentials {
		a, err := keynote.Parse(text)
		if err != nil {
			return fmt.Errorf("keycom: malformed credential: %w", err)
		}
		creds = append(creds, a)
	}
	// Admit the administrator's credential set once; every row change
	// below is a (mostly cached) decision on that session.
	eng := s.Engine()
	if eng == nil {
		return errors.New("keycom: no checker configured")
	}
	session := eng.Session(creds)
	// Authorise every row change before touching the catalogue.
	for _, e := range req.Diff.AddedRolePerm {
		if err := s.authorise(ctx, session, req.Requester, ActionAddRolePerm, rolePermAttrs(e)); err != nil {
			return err
		}
	}
	for _, e := range req.Diff.RemovedRolePerm {
		if err := s.authorise(ctx, session, req.Requester, ActionRemoveRolePerm, rolePermAttrs(e)); err != nil {
			return err
		}
	}
	for _, e := range req.Diff.AddedUserRole {
		if err := s.authorise(ctx, session, req.Requester, ActionAddUserRole, userRoleAttrs(e)); err != nil {
			return err
		}
	}
	for _, e := range req.Diff.RemovedUserRole {
		if err := s.authorise(ctx, session, req.Requester, ActionRemoveUserRole, userRoleAttrs(e)); err != nil {
			return err
		}
	}
	ticket, err := s.commit(ctx, req)
	if err != nil {
		return err
	}
	s.dispatchHooks(ticket)
	return nil
}

// diffValidator is implemented by middleware systems that can reject a
// diff without applying it (e.g. complus.Catalogue). The commit path
// checks it before writing the WAL frame so acknowledged frames always
// re-apply during recovery replay.
type diffValidator interface {
	ValidateDiff(d rbac.Diff) error
}

// commit runs the critical section of an authorised update: lint gate,
// durable append (when a store is attached), then the middleware
// catalogue. It returns the commit's hook ticket. The service's own
// decision cache is flushed before the lock is released, so a reader
// that sees the new catalogue never races a stale cached decision from
// this service; external hooks fire later, outside the lock.
func (s *Service) commit(ctx context.Context, req *UpdateRequest) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.lintGate(ctx, req.Diff); err != nil {
		return 0, err
	}
	if v, ok := s.System.(diffValidator); ok {
		if err := v.ValidateDiff(req.Diff); err != nil {
			return 0, err
		}
	}
	if s.Store != nil {
		if _, err := s.Store.Commit(req.Requester, req.Diff); err != nil {
			return 0, err
		}
	}
	if err := s.System.ApplyDiff(ctx, req.Diff); err != nil {
		return 0, err
	}
	if eng := s.Engine(); eng != nil {
		eng.Invalidate()
	}
	s.ticket++
	return s.ticket, nil
}

// dispatchHooks fires the registered hooks for one commit, outside the
// service lock but strictly in ticket order.
func (s *Service) dispatchHooks(ticket uint64) {
	s.turnMu.Lock()
	if s.turnCond == nil {
		s.turnCond = sync.NewCond(&s.turnMu)
	}
	for s.turnDone != ticket-1 {
		s.turnCond.Wait()
	}
	s.turnMu.Unlock()
	s.hookMu.Lock()
	hooks := append([]func(){}, s.hooks...)
	s.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	s.turnMu.Lock()
	s.turnDone = ticket
	s.turnCond.Broadcast()
	s.turnMu.Unlock()
}

// AttachStore wires a durable store into the service and replays its
// recovered catalogue into System: the recovered rows replace the
// middleware configuration, the service's decision cache is flushed,
// and the commit hooks are re-fired once — through the same
// outside-the-lock dispatch path as a live commit — so every consumer
// cache rebuilds against exactly the last acknowledged commit.
func (s *Service) AttachStore(ctx context.Context, st *Store) error {
	s.mu.Lock()
	s.Store = st
	if st.Seq() == 0 {
		// A fresh store adopts the current catalogue (demo seeding, an
		// installer's initial grants) as its baseline commit, so from here
		// on the store alone reconstructs the whole configuration.
		cur, err := s.System.ExtractPolicy(ctx)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("keycom: baseline extract: %w", err)
		}
		if cur.Len() > 0 {
			if _, err := st.Commit("baseline", cur.DiffFrom(rbac.NewPolicy())); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("keycom: baseline commit: %w", err)
			}
		}
	}
	if _, err := s.System.ApplyPolicy(ctx, st.Policy()); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("keycom: replay recovered catalogue: %w", err)
	}
	if eng := s.Engine(); eng != nil {
		eng.Invalidate()
	}
	s.ticket++
	ticket := s.ticket
	s.mu.Unlock()
	s.dispatchHooks(ticket)
	return nil
}

// lintGate statically analyses the catalogue state the diff would
// produce. It runs under s.mu, so the extract-check-apply sequence is
// atomic with respect to other updates; on refusal nothing has been
// written.
func (s *Service) lintGate(ctx context.Context, d rbac.Diff) error {
	if s.LintVocab == nil {
		return nil
	}
	cur, err := s.System.ExtractPolicy(ctx)
	if err != nil {
		return fmt.Errorf("keycom: lint gate: extract: %w", err)
	}
	next := cur.Clone()
	next.Apply(d)
	var rep *policylint.Report
	if len(next.RolePerms()) > 0 {
		rep, err = translate.LintEncoded(next, s.LintVocab, translate.Options{})
		if err != nil {
			return fmt.Errorf("keycom: lint gate: %w", err)
		}
	} else {
		// Nothing to encode as KeyNote: fall back to row-level checks.
		rep = policylint.LintPolicy(next, s.LintVocab)
	}
	if rep.HasErrors() {
		errs := rep.BySeverity(policylint.Error)
		return fmt.Errorf("keycom: update refused, resulting credential set lints with %d error(s), first: %s",
			len(errs), errs[0].Message)
	}
	// Static-analysis warnings from the keynote compiler (PL011 constant
	// conditions, PL013 dead assertions) also refuse the commit: a
	// catalogue whose encoded credentials are statically inert or
	// unconditionally true is corrupt even though it still evaluates.
	// (PL012/PL014 are error-severity and already caught above.)
	for _, code := range []policylint.Code{policylint.CodeConstCondition, policylint.CodeDeadAssertion} {
		if got := rep.ByCode(code); len(got) > 0 {
			return fmt.Errorf("keycom: update refused, static analysis flags %s on the resulting set: %s",
				code, got[0].Message)
		}
	}
	return nil
}

func rolePermAttrs(e rbac.RolePermEntry) map[string]string {
	return map[string]string{
		"Domain":     string(e.Domain),
		"Role":       string(e.Role),
		"ObjectType": string(e.ObjectType),
		"Permission": string(e.Permission),
	}
}

func userRoleAttrs(e rbac.UserRoleEntry) map[string]string {
	return map[string]string{
		"Domain": string(e.Domain),
		"Role":   string(e.Role),
		"User":   string(e.User),
	}
}

func (s *Service) authorise(ctx context.Context, session *authz.CredentialSession, requester, action string, attrs map[string]string) error {
	q := keynote.Query{
		Authorizers: []string{requester},
		Attributes:  map[string]string{"app_domain": AppDomain, "action": action},
	}
	for k, v := range attrs {
		q.Attributes[k] = v
	}
	d, err := session.Decide(ctx, q)
	if err != nil {
		return err
	}
	if !d.Allowed {
		if !d.Trace.CacheHit {
			s.Audit().Record(requester, action, d)
		}
		return fmt.Errorf("keycom: requester not authorised for %s (%v)", action, attrs)
	}
	return nil
}

// ---- Network front end (the Figure 8 deployment shape) ----

// Server exposes a Service over TCP with JSON-line requests and
// responses.
type Server struct {
	svc *Service
	srv netserve.Server
	// decoded, when non-nil, runs after a request is decoded and before
	// it is admitted: tests park a request there to race Shutdown.
	decoded func()
}

// wireResponse answers one request frame; Policy is set only on a
// successful extract.
type wireResponse struct {
	OK     bool            `json:"ok"`
	Err    string          `json:"err,omitempty"`
	Policy json.RawMessage `json:"policy,omitempty"`
}

// ListenAndServe starts the service on addr.
func ListenAndServe(svc *Service, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("keycom: listen: %w", err)
	}
	s := &Server{svc: svc}
	s.srv.Serve(ln, s.serveConn)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// Close stops the server immediately: the accept loop ends and every
// open connection is severed, without waiting for in-flight requests.
// It returns once every goroutine of the server has exited.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: the listener closes and a new
// request is refused; in-flight requests drain — a commit that has been
// accepted finishes, is fsynced and answered — and only then are the
// idle connections closed. The context bounds the drain; on expiry the
// remaining connections are severed and ctx.Err() returned. Either way
// no request can reach the Service (or its Store) once it returns.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

func (s *Server) serveConn(conn net.Conn) {
	dec := json.NewDecoder(conn)
	enc := json.NewEncoder(conn)
	for {
		var env wireEnvelope
		if err := dec.Decode(&env); err != nil {
			return
		}
		if s.decoded != nil {
			s.decoded()
		}
		// The request is in flight from admission until its response is
		// written; Shutdown waits for it.
		if !s.srv.Begin() {
			enc.Encode(&wireResponse{Err: "keycom: server shutting down"})
			return
		}
		ok := s.handle(&env, enc)
		s.srv.End()
		if !ok {
			return
		}
	}
}

// handle serves one decoded request and reports whether the connection
// should stay open.
func (s *Server) handle(env *wireEnvelope, enc *json.Encoder) bool {
	switch {
	case env.Extract != nil:
		resp := wireResponse{OK: true}
		p, err := s.svc.Extract(context.Background(), env.Extract)
		if err != nil {
			resp = wireResponse{Err: err.Error()}
		} else {
			data, err := json.Marshal(p)
			if err != nil {
				resp = wireResponse{Err: err.Error()}
			} else {
				resp.Policy = data
			}
		}
		return enc.Encode(&resp) == nil
	default:
		req := env.Update
		if req == nil {
			// Legacy flat frame: the envelope fields are the update.
			req = &UpdateRequest{
				Requester:   env.Requester,
				Diff:        env.Diff,
				Credentials: env.Credentials,
				Sig:         env.Sig,
			}
		}
		resp := wireResponse{OK: true}
		if err := s.svc.Apply(context.Background(), req); err != nil {
			resp = wireResponse{OK: false, Err: err.Error()}
		}
		return enc.Encode(&resp) == nil
	}
}

// Submit sends one signed update request to a remote KeyCOM service.
func Submit(addr string, req *UpdateRequest) error {
	return roundTrip(addr, req, &wireResponse{})
}

// roundTripTimeout bounds one client round trip, dial included: a
// service that accepts and then stays silent fails the call instead of
// hanging it.
var roundTripTimeout = 30 * time.Second

// roundTrip sends one request frame to a remote KeyCOM service and
// decodes its answer into resp, turning a refusal into an error.
func roundTrip(addr string, req any, resp *wireResponse) error {
	conn, err := net.DialTimeout("tcp", addr, roundTripTimeout)
	if err != nil {
		return fmt.Errorf("keycom: dial %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(roundTripTimeout))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return err
	}
	if err := json.NewDecoder(conn).Decode(resp); err != nil {
		return err
	}
	if !resp.OK {
		return errors.New(resp.Err)
	}
	return nil
}
