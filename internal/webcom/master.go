package webcom

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/netserve"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/translate"
)

// Master is a WebCom master: it accepts client connections, authenticates
// them, and schedules condensed-graph operations to clients its KeyNote
// policy authorises.
type Master struct {
	// Key is the master's identity.
	Key *keys.KeyPair
	// Checker holds the master's policy for authorising clients.
	Checker *keynote.Checker
	// Credentials are presented to clients so they can authorise the
	// master in turn.
	Credentials []*keynote.Assertion
	// Resolver resolves principal names for signature checks.
	Resolver keynote.Resolver
	// Retry configures retries, backoff, dispatch deadlines, circuit
	// breaking and per-client in-flight bounds. Zero value = defaults.
	Retry RetryPolicy
	// Live configures heartbeat liveness and the handshake deadline.
	// Zero value = defaults.
	Live Liveness
	// Tel, when non-nil, receives scheduler metrics: dispatch counts
	// and latency, retries, denials, breaker transitions and the
	// connected-client gauge. Nil disables all instrumentation.
	Tel *telemetry.Registry
	// Tracer, when non-nil, records request-scoped spans for every
	// scheduled task; Run installs it on the evaluation context, and
	// dispatch propagates trace identifiers to clients over the wire.
	Tracer *telemetry.Tracer
	// Codec selects the wire codec offered to clients: CodecAuto/
	// CodecBinary negotiate binary/1 (JSON fallback for peers that
	// don't echo it), CodecJSON pins every connection to JSON.
	Codec string

	srv netserve.Server // listener, connections, dispatch admission

	// engOnce guards the lazy authz engine so Masters built as struct
	// literals (tests, examples) get one too.
	engOnce sync.Once
	eng     *authz.Engine
	audit   *authz.AuditLog

	// mintOnce guards the lazy delegation mint cache: repeat delegations
	// of the same subgraph to the same sub-master reuse one minted,
	// pre-linted credential instead of paying Ed25519 plus a lint pass
	// per delegation (see authz.MintCache).
	mintOnce sync.Once
	mints    *authz.MintCache

	// OnDelegateProgress, when non-nil, observes every streamed
	// delegate_result frame (node name and value) received from
	// delegated subgraphs. Advisory — the closing result frame stays
	// authoritative. Called from dispatch goroutines concurrently.
	OnDelegateProgress func(node, result string)

	nextID atomic.Uint64

	mu       sync.Mutex
	clients  map[string]*masterClient        // by client name
	snapshot atomic.Pointer[[]*masterClient] // sorted clients, rebuilt on churn
	rr       uint64                          // round-robin rotation for load spreading
}

// refreshSnapshot rebuilds the lock-free client list. Callers hold m.mu.
func (m *Master) refreshSnapshot() {
	list := make([]*masterClient, 0, len(m.clients))
	for _, c := range m.clients {
		list = append(list, c)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	m.snapshot.Store(&list)
}

// Engine returns the master's authorisation engine (built lazily from
// Checker). Sessions are admitted per client at handshake; per-task
// decisions are served from its cache.
func (m *Master) Engine() *authz.Engine {
	m.engOnce.Do(func() {
		if m.Checker != nil {
			m.eng = authz.NewEngine(m.Checker, authz.WithTelemetry(m.Tel))
		}
		m.audit = authz.NewAuditLog(256)
	})
	return m.eng
}

// Audit returns the master's denial log: every task the policy refused,
// with its full decision trace.
func (m *Master) Audit() *authz.AuditLog {
	m.Engine()
	return m.audit
}

type masterClient struct {
	m           *Master
	name        string
	principal   string
	role        string // "" plain client, roleSubmaster for embedded masters
	conn        *conn
	credentials []*keynote.Assertion
	// session is the client's credential set admitted into the master's
	// authz engine at handshake: signatures verified once, per-task
	// decisions cached. Nil when the master has no checker.
	session *authz.CredentialSession
	// verdicts is the admission-time per-op verdict set (verdicts.go):
	// eligible sessions answer steady-state authorisation with one
	// per-connection map lookup. Nil when the master has no checker.
	verdicts *verdictSet
	sem      chan struct{} // in-flight slots (backpressure)
	died     chan struct{} // closed when the connection is declared dead
	brk      *breaker
	load     loadTracker // in-flight / latency EWMA for load-aware placement

	mu      sync.Mutex
	pending map[uint64]chan *msg
	// closures records, by content hash, delegation closures this
	// connection has successfully carried end to end: repeats go by
	// LibraryRef instead of resending the bytes. Marks die with the
	// connection; the sub's cache is consulted afresh on reconnect.
	closures map[string]bool
	dead     bool
}

// closureSent reports whether this connection has already carried the
// closure named by hash to a successful result.
func (mc *masterClient) closureSent(hash string) bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.closures[hash]
}

// markClosure records (sent=true) or withdraws (sent=false, after an
// errUnknownClosure answer) the fact that the sub on this connection
// holds the closure named by hash.
func (mc *masterClient) markClosure(hash string, sent bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if !sent {
		delete(mc.closures, hash)
		return
	}
	if mc.closures == nil {
		mc.closures = make(map[string]bool)
	}
	mc.closures[hash] = true
}

// fail declares the client dead exactly once: outstanding tasks are
// failed so the scheduler retries them elsewhere, waiters on died are
// released, and the connection is closed.
func (mc *masterClient) fail(reason string) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	close(mc.died)
	pend := mc.pending
	mc.pending = make(map[uint64]chan *msg)
	mc.mu.Unlock()
	for id, ch := range pend {
		ch <- &msg{Type: msgResult, TaskID: id,
			Err: "webcom: client connection lost (" + reason + ")"}
	}
	mc.conn.close()
}

func (mc *masterClient) isDead() bool {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.dead
}

// NewMaster creates a master with the given identity and client policy.
func NewMaster(key *keys.KeyPair, checker *keynote.Checker, credentials []*keynote.Assertion, resolver keynote.Resolver) *Master {
	return &Master{
		Key:         key,
		Checker:     checker,
		Credentials: credentials,
		Resolver:    resolver,
		clients:     make(map[string]*masterClient),
	}
}

// Listen starts accepting clients on addr ("127.0.0.1:0" for ephemeral).
func (m *Master) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("webcom: master listen: %w", err)
	}
	m.Serve(ln)
	return nil
}

// Serve accepts clients from an already-open listener. It allows callers
// to interpose transports (TLS, fault injection in chaos tests) between
// the master and the network.
func (m *Master) Serve(ln net.Listener) {
	m.Tel.GaugeFunc("webcom.clients", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(len(m.clients))
	})
	m.srv.Serve(ln, m.handleClient)
}

// Addr returns the listen address.
func (m *Master) Addr() string { return m.srv.Addr().String() }

// Close stops the master: the listener closes and every client
// connection, mid-handshake ones included, is severed, failing its
// outstanding tasks. It returns once every master goroutine has exited.
func (m *Master) Close() error { return m.srv.Close() }

// Shutdown stops the master gracefully: the listener closes and new
// dispatches are refused, in-flight dispatches drain — a task already on
// the wire gets its result back — and then it closes as Close does. The
// context bounds the drain; on expiry ctx.Err() is returned.
func (m *Master) Shutdown(ctx context.Context) error { return m.srv.Shutdown(ctx) }

// errMasterClosed refuses a dispatch once Close or Shutdown has begun.
var errMasterClosed = errors.New("webcom: master is shut down")

// handleClient performs the mutual authentication handshake and then
// serves results from the client. The connection closes when it returns.
func (m *Master) handleClient(raw net.Conn) {
	live := m.Live.withDefaults()
	c := newConn(raw, live.IdleTimeout)
	// A connection that sends nothing after the challenge must not pin
	// this goroutine: the whole handshake runs under a read deadline.
	c.setHandshakeDeadline(live.HandshakeTimeout)
	nonce, err := newNonce()
	if err != nil {
		return
	}
	if err := c.send(&msg{
		Type:      msgChallenge,
		Nonce:     nonce,
		Principal: m.Key.PublicID(),
		Codecs:    negotiatedCodecs(m.Codec),
	}); err != nil {
		return
	}
	hello, err := c.recv()
	if err != nil || hello.Type != msgHello || hello.Name == "" || hello.Principal == "" {
		return
	}
	// The client may echo one of the offered codecs; anything else —
	// including a codec we never offered — keeps the JSON fallback.
	chosenCodec := ""
	for _, offered := range negotiatedCodecs(m.Codec) {
		if hello.Codec == offered {
			chosenCodec = offered
			break
		}
	}
	// Verify the client's possession of its key.
	if err := keys.Verify(hello.Principal,
		handshakePayload("client", nonce, hello.Principal), hello.Sig); err != nil {
		c.send(&msg{Type: msgReject, Err: "client authentication failed"})
		return
	}
	// Parse the client's presented credentials. Signature verification
	// happens ONCE, below, when the set is admitted into the authz
	// engine's session — not per scheduled task. Forged credentials are
	// recorded in the session's rejections and simply never grant.
	var creds []*keynote.Assertion
	for _, text := range hello.Credentials {
		a, err := keynote.Parse(text)
		if err != nil {
			c.send(&msg{Type: msgReject, Err: "malformed credential: " + err.Error()})
			return
		}
		creds = append(creds, a)
	}
	// Reject an impersonation attempt before completing the handshake: a
	// different key claiming an in-use name must never see a welcome.
	// (Re-checked under the same lock at registration below; this early
	// check only makes the rejection visible to the impostor's Connect.)
	m.mu.Lock()
	if old, dup := m.clients[hello.Name]; dup && old.principal != hello.Principal {
		m.mu.Unlock()
		c.send(&msg{Type: msgReject, Err: "client name already connected under another principal"})
		return
	}
	m.mu.Unlock()
	// Answer the client's counter-challenge and present our credentials.
	credTexts := make([]string, len(m.Credentials))
	for i, a := range m.Credentials {
		credTexts[i] = a.Text()
	}
	if err := c.send(&msg{
		Type:        msgWelcome,
		Principal:   m.Key.PublicID(),
		Sig:         m.Key.Sign(handshakePayload("master", hello.Nonce, m.Key.PublicID())),
		Credentials: credTexts,
		Codec:       chosenCodec,
	}); err != nil {
		return
	}
	// The welcome confirmed the codec; every frame from here on — both
	// directions — rides it. The client switches at the same point, on
	// receipt of the welcome, so no frame straddles the change.
	if chosenCodec == codecBinaryV1 {
		c.setBinary()
	}
	c.clearDeadline()

	rp := m.Retry.withDefaults()
	mc := &masterClient{
		m:           m,
		name:        hello.Name,
		principal:   hello.Principal,
		role:        hello.Role,
		conn:        c,
		credentials: creds,
		sem:         make(chan struct{}, rp.MaxInFlight),
		died:        make(chan struct{}),
		brk:         newBreaker(rp.FailureThreshold, rp.Quarantine),
		pending:     make(map[uint64]chan *msg),
	}
	if m.Tel != nil {
		mc.brk.onTransition = func(_, to breakerState) {
			switch to {
			case breakerOpen:
				m.Tel.Counter("webcom.breaker.opened").Inc()
			case breakerHalfOpen:
				m.Tel.Counter("webcom.breaker.halfopen").Inc()
			case breakerClosed:
				m.Tel.Counter("webcom.breaker.closed").Inc()
			}
		}
	}
	// Admit the credential set now (one signature verification per
	// credential); the dispatch path consults the admission-time verdict
	// set, falling back to the decision cache.
	if eng := m.Engine(); eng != nil {
		mc.session = eng.Session(creds)
		mc.verdicts = newVerdictSet(eng, mc.session)
	}
	m.mu.Lock()
	if old, dup := m.clients[mc.name]; dup {
		if old.principal != mc.principal {
			// A different key claiming an in-use name is an
			// impersonation attempt, not a reconnect.
			m.mu.Unlock()
			c.send(&msg{Type: msgReject, Err: "client name already connected under another principal"})
			return
		}
		// The same principal re-authenticated: the old entry is a stale
		// connection (silent partition, crash-and-restart). Supersede it
		// so the reconnecting client is admitted immediately instead of
		// being locked out until the dead TCP connection times out.
		m.clients[mc.name] = mc
		m.refreshSnapshot()
		m.mu.Unlock()
		old.fail("superseded by reconnect")
	} else {
		m.clients[mc.name] = mc
		m.refreshSnapshot()
		m.mu.Unlock()
	}

	// Heartbeat: ping the client and declare it dead after IdleTimeout
	// of silence — the only defence against accepted-but-silent peers.
	stopBeat := heartbeat(c, live, mc.fail)

	// Serve results until the connection dies. Result messages hand
	// ownership of the pooled msg to the dispatch waiter (which releases
	// it); everything else is released here.
	for {
		r, err := c.recv()
		if err != nil {
			break
		}
		switch r.Type {
		case msgPing:
			c.send(pongMsg)
			msgRelease(r)
		case msgResult:
			mc.mu.Lock()
			ch := mc.pending[r.TaskID]
			delete(mc.pending, r.TaskID)
			mc.mu.Unlock()
			if ch != nil {
				ch <- r
			} else {
				msgRelease(r) // dispatch timed out and withdrew the waiter
			}
		case msgDelegateResult:
			// Streamed per-node progress from a delegated subgraph: route
			// to the waiter without consuming its pending entry — the
			// closing result frame still has to arrive. Progress frames
			// are advisory, so a slow waiter drops rather than blocks the
			// read loop.
			mc.mu.Lock()
			ch := mc.pending[r.TaskID]
			mc.mu.Unlock()
			if ch != nil {
				select {
				case ch <- r:
				default:
					msgRelease(r)
				}
			} else {
				msgRelease(r)
			}
		default:
			msgRelease(r)
		}
	}
	// Connection lost: fail outstanding tasks so the scheduler retries.
	// Failing closes the connection, so a ping blocked on it returns.
	mc.fail("read loop ended")
	stopBeat()
	m.mu.Lock()
	if m.clients[mc.name] == mc {
		delete(m.clients, mc.name)
		m.refreshSnapshot()
	}
	m.mu.Unlock()
}

// pongMsg and pingMsg are shared immutable heartbeat frames: send
// serialises under the write lock without mutating its argument, so the
// liveness paths allocate nothing.
var (
	pongMsg = &msg{Type: msgPong}
	pingMsg = &msg{Type: msgPing}
)

// heartbeat pings c every PingInterval and calls fail once the peer has
// been silent for IdleTimeout or a ping cannot be sent. The returned
// stop waits for its goroutine: close c first, or a blocked ping stays.
func heartbeat(c *conn, live Liveness, fail func(reason string)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(live.PingInterval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				if c.idle() > live.IdleTimeout {
					fail("heartbeat timeout")
					return
				}
				if err := c.send(pingMsg); err != nil {
					fail("ping failed")
					return
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// Clients returns the names of connected clients, sorted.
func (m *Master) Clients() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.clients))
	for n := range m.clients {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// taskQuery builds the KeyNote query asking whether principal may be
// scheduled the operation. The attribute set carries the operation name,
// the IDE's (Domain, Role, User, ObjectType, Permission) annotations, and
// — implementing the extension the paper's Section 7 leaves as ongoing
// research — the operation's actual inputs as arg0..argN plus their
// count, so policies can mediate on the environment of the component, not
// just its identifier (e.g. "may only read employee Bob's record").
func taskQuery(principal, opName string, annotations map[string]string, args []string) keynote.Query {
	attrs := map[string]string{
		"app_domain": AppDomain,
		"operation":  opName,
		"num_args":   strconv.Itoa(len(args)),
	}
	for i, a := range args {
		attrs["arg"+strconv.Itoa(i)] = a
	}
	if i := strings.LastIndex(opName, "."); i > 0 {
		attrs[translate.AttrObjectType] = opName[:i]
		attrs[translate.AttrPermission] = opName[i+1:]
	}
	for k, v := range annotations {
		attrs[k] = v
	}
	return keynote.Query{Authorizers: []string{principal}, Attributes: attrs}
}

// authorisedClients returns connected clients the master's policy permits
// for the task, rotated for load spreading, along with the total number
// of connected clients (so callers can tell "nobody connected" — a
// transient condition worth retrying — from "connected but none
// authorised" — a policy decision).
func (m *Master) authorisedClients(ctx context.Context, t cg.Task, scratch []*masterClient) ([]*masterClient, int, error) {
	var all []*masterClient
	if p := m.snapshot.Load(); p != nil {
		all = *p
	}

	out := scratch[:0]
	for _, c := range all {
		if c.isDead() {
			continue
		}
		if c.session == nil {
			// No checker configured: an authenticated client is enough.
			out = append(out, c)
			continue
		}
		// The admission-time verdict set answers eligible sessions with
		// no query build and no shared-cache probe; the rest (ineligible
		// session, new op, stale epoch, annotation shadowing) take the
		// full decision.
		allowed, _, err := c.verdicts.authorise(ctx, c.principal, t.OpName, t.Annotations, t.Args, m.Audit(), c.name)
		if err != nil {
			return nil, len(all), err
		}
		if allowed {
			out = append(out, c)
		} else {
			m.Tel.Counter("webcom.denials").Inc()
		}
	}
	return m.orderByLoad(out), len(all), nil
}

// orderByLoad orders candidates cheapest-first by load score (latency
// EWMA x queued work). Candidates whose scores are near-tied with the
// best are rotated round-robin, so equally cheap clients share work the
// way the pre-federation scheduler spread it; clearly more expensive
// clients (slow, saturated, or both) sink to the back and are only
// reached when the cheap ones fail.
func (m *Master) orderByLoad(cands []*masterClient) []*masterClient {
	if len(cands) < 2 {
		return cands
	}
	scores := make([]float64, len(cands))
	for i, c := range cands {
		scores[i] = c.load.score()
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	ordered := make([]*masterClient, len(cands))
	for i, j := range idx {
		ordered[i] = cands[j]
	}
	best := scores[idx[0]]
	tie := 1
	for tie < len(ordered) && loadTied(scores[idx[tie]], best) {
		tie++
	}
	if tie > 1 {
		m.mu.Lock()
		shift := int(m.rr % uint64(tie))
		m.rr++
		m.mu.Unlock()
		rotated := append(append([]*masterClient{}, ordered[shift:tie]...), ordered[:shift]...)
		copy(ordered[:tie], rotated)
	}
	return ordered
}

// ErrNoAuthorisedClient is returned when no connected client may execute
// a task under the master's policy.
var ErrNoAuthorisedClient = errors.New("webcom: no authorised client for task")

// ErrTaskDenied is returned when a client's own policy (or its
// middleware) refused the task. A denial is a policy decision, never
// retried; sub-masters relaying tasks detect it with errors.Is so the
// denial propagates as a denial, not a transport fault, at every tier.
var ErrTaskDenied = errors.New("webcom: task denied")

// Executor returns a cg.Executor that schedules Opaque operations to
// authorised clients, falling back to local evaluation for Func
// operators. Transport faults — lost connections, dispatch deadlines,
// stalled clients — are retried with exponential backoff and jitter on
// other authorised clients, skipping clients whose circuit breaker is
// open. Authorisation denials are NEVER retried: a denial is a policy
// decision, not a fault, and retrying it elsewhere would turn policy
// routing into a race.
func (m *Master) Executor() cg.Executor {
	rp := m.Retry.withDefaults()
	return func(ctx context.Context, t cg.Task, op cg.Operator) (string, error) {
		if _, local := op.(*cg.Func); local {
			return cg.LocalExecutor(ctx, t, op)
		}
		ctx, span := telemetry.StartSpan(ctx, "webcom.schedule")
		defer span.Finish()
		span.SetAttr("op", t.OpName)
		var lastErr error
		// tried lives on the stack for typical pool sizes; candidate
		// scratch likewise keeps the steady-state path allocation-free.
		var triedArr [8]*masterClient
		var candArr [8]*masterClient
		tried := triedArr[:0]
		for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
			if attempt > 0 {
				m.Tel.Counter("webcom.retries").Inc()
				if err := sleepCtx(ctx, rp.backoff(attempt-1)); err != nil {
					return "", err
				}
			}
			cands, connected, err := m.authorisedClients(ctx, t, candArr[:0])
			if err != nil {
				return "", err
			}
			if len(cands) == 0 {
				if connected > 0 {
					// Clients are connected and the policy authorises
					// none of them: a decision, not a fault.
					return "", fmt.Errorf("%w: op %s (annotations %v)", ErrNoAuthorisedClient, t.OpName, t.Annotations)
				}
				// Nobody connected right now; the pool may be mid-
				// reconnect, so treat it as transient and retry.
				lastErr = fmt.Errorf("%w: op %s (no clients connected)", ErrNoAuthorisedClient, t.OpName)
				continue
			}
			var target *masterClient
			now := time.Now()
			for _, c := range cands {
				seen := false
				for _, prior := range tried {
					if prior == c {
						seen = true
						break
					}
				}
				if !seen && c.brk.allow(now) {
					target = c
					break
				}
			}
			if target == nil {
				// Everyone authorised has been tried this round or sits
				// in quarantine: back off and start a fresh round (a
				// reconnected client is a new entry and will be
				// offered again).
				tried = tried[:0]
				if lastErr == nil {
					lastErr = errors.New("webcom: all authorised clients quarantined")
				}
				continue
			}
			tried = append(tried, target)
			m.Tel.Counter("webcom.dispatch.total").Inc()
			sched := msgAcquire()
			sched.Type = msgSchedule
			sched.Op = t.OpName
			sched.Args = append(sched.Args[:0], t.Args...)
			sched.Annotations = t.Annotations
			res, err := target.call(ctx, sched, nil)
			sched.Annotations = nil // caller-owned; don't let release clear it
			msgRelease(sched)
			if errors.Is(err, errMasterClosed) {
				return "", err
			}
			if err != nil {
				target.brk.failure(time.Now())
				lastErr = err
				if ctx.Err() != nil {
					// The caller's context ended; don't burn the
					// remaining attempts.
					return "", err
				}
				continue
			}
			target.brk.success()
			if res.Denied {
				// The client's own policy refused the master or the
				// middleware denied the invocation; surface it.
				m.Tel.Counter("webcom.denials").Inc()
				span.SetAttr("denied", "true")
				err := fmt.Errorf("%w: client %s refused %s: %s", ErrTaskDenied, target.name, t.OpName, res.Err)
				msgRelease(res)
				return "", err
			}
			if res.Err != "" {
				err := fmt.Errorf("webcom: task %s on %s: %s", t.OpName, target.name, res.Err)
				msgRelease(res)
				return "", err
			}
			result := res.Result
			msgRelease(res)
			return result, nil
		}
		m.Tel.Counter("webcom.failures").Inc()
		span.SetAttr("failed", "true")
		return "", fmt.Errorf("webcom: task %s failed after %d attempts: %w", t.OpName, rp.MaxAttempts, lastErr)
	}
}

// waiterPool holds one-shot result channels. A channel is returned to
// the pool only after a successful receive: the read loop deletes the
// pending entry before sending, so once a result arrives no other send
// into the channel is possible and reuse is safe. On timeout the channel
// is abandoned to the garbage collector instead — a late result could
// still be in flight toward it.
var waiterPool = sync.Pool{New: func() any { return make(chan *msg, 1) }}

// timerPool recycles dispatch-deadline timers, replacing the
// context.WithTimeout allocation quartet on the hot path. Timers are
// always stopped and drained before going back.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}}

func timerGet(d time.Duration) *time.Timer {
	t := timerPool.Get().(*time.Timer)
	t.Reset(d)
	return t
}

func timerPut(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// errConnLost fails a call whose client connection was declared dead
// before its request frame left.
var errConnLost = errors.New("webcom: client connection lost")

// call is the one master→client round trip: it sends req, a schedule or
// a delegate frame, and awaits the closing result frame. The request is
// admitted through the master's lifecycle, so Shutdown drains it, and
// takes one of the client's in-flight slots under the deadline of its
// kind (DispatchTimeout or DelegateTimeout). call assigns req.TaskID
// and stamps the trace identifiers; the caller keeps ownership of req.
// Streamed delegate_result frames that arrive before the closing frame
// are handed to onFrame, which only a delegation passes: with a
// callback the waiter is a buffered channel, without one the pooled
// one-shot waiter, so a task dispatch allocates nothing. On a timeout
// or cancellation the waiter is withdrawn and req.TaskID stays set, so
// the caller can tell the client to stop. The caller owns the returned
// msg and must msgRelease it.
func (c *masterClient) call(ctx context.Context, req *msg, onFrame func(node, result string)) (*msg, error) {
	m := c.m
	if !m.srv.Begin() {
		return nil, errMasterClosed
	}
	defer m.srv.End()
	rp := m.Retry.withDefaults()
	spanName, latency, timeout := "webcom.dispatch", "webcom.dispatch.latency", rp.DispatchTimeout
	if req.Type == msgDelegate {
		spanName, latency, timeout = "webcom.delegate.dispatch", "webcom.delegate.latency", rp.DelegateTimeout
	}

	ctx, span := telemetry.StartSpan(ctx, spanName)
	defer span.Finish()
	span.SetAttr("client", c.name)
	start := time.Now()
	c.load.begin()
	defer func() {
		// One observation point feeds both the telemetry histogram and
		// the scheduler's per-client EWMA, success or failure alike — a
		// timed-out call is exactly the signal that should push a
		// client down the placement order.
		d := time.Since(start)
		c.load.end(d)
		m.Tel.Histogram(latency).ObserveDuration(d)
	}()

	// The deadline rides a pooled timer instead of a derived context;
	// it also bounds the backpressure wait below.
	tm := timerGet(timeout)
	defer timerPut(tm)

	// Backpressure: wait for one of the client's in-flight slots.
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-c.died:
		return nil, errConnLost
	case <-tm.C:
		return nil, context.DeadlineExceeded
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	pooled := onFrame == nil
	var ch chan *msg
	if pooled {
		ch = waiterPool.Get().(chan *msg)
	} else {
		// The buffer absorbs a burst of progress frames; the read loop
		// drops, never blocks on, frames beyond it.
		ch = make(chan *msg, 64)
	}
	id := m.nextID.Add(1)
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		if pooled {
			waiterPool.Put(ch)
		}
		return nil, errConnLost
	}
	c.pending[id] = ch
	c.mu.Unlock()

	req.TaskID = id
	if span != nil {
		// Carry the trace across the wire so the client's spans parent
		// under this one.
		req.TraceID = span.TraceID
		req.SpanID = span.SpanID
	}
	if err := c.conn.send(req); err != nil {
		// A send failure usually means the connection is dying, and
		// fail() may already be iterating a pending map that contains
		// this waiter — abandon it rather than risk pooling a channel a
		// synthetic result is still heading for.
		c.withdraw(id)
		return nil, err
	}
	for {
		select {
		case r := <-ch:
			if r.Type == msgDelegateResult {
				// Advisory per-node progress; the closing frame is the
				// authoritative answer.
				m.Tel.Counter("webcom.delegate.frames.streamed").Inc()
				if onFrame != nil {
					onFrame(r.Node, r.Result)
				}
				msgRelease(r)
				continue
			}
			if pooled {
				waiterPool.Put(ch)
			}
			if r.Err != "" && strings.Contains(r.Err, "connection lost") {
				err := errors.New(r.Err)
				msgRelease(r)
				return nil, err
			}
			// The client ships its finished spans for this trace back
			// with the result; merging them here keeps one connected
			// chain per request visible from this tier's /traces
			// endpoint — and, on a sub-master, forwardable another hop up.
			if len(r.Spans) > 0 {
				telemetry.TracerFrom(ctx).Ingest(r.Spans)
			}
			return r, nil
		case <-tm.C:
			c.withdraw(id)
			return nil, context.DeadlineExceeded
		case <-ctx.Done():
			c.withdraw(id)
			return nil, ctx.Err()
		}
	}
}

// withdraw removes a pending waiter after a timeout or cancellation.
// The waiter itself is abandoned (not pooled): if the read loop already
// claimed the entry, its result send is in flight and would poison a
// recycled channel.
func (c *masterClient) withdraw(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Run evaluates a condensed graph, scheduling its opaque operations to
// the connected clients. When the engine has a graph library, condensed
// nodes are offered whole to authorised sub-masters first (scoped
// delegation); local evaporation remains the fallback.
func (m *Master) Run(ctx context.Context, eng *cg.Engine, g *cg.Graph, inputs map[string]string) (string, cg.Stats, error) {
	if eng.Exec == nil {
		eng.Exec = m.Executor()
	}
	if eng.Tel == nil {
		eng.Tel = m.Tel
	}
	if eng.Library != nil && eng.Condenser == nil {
		eng.Condenser = m.Condenser(eng.Library)
	}
	if m.Tracer != nil {
		ctx = telemetry.WithTracer(ctx, m.Tracer)
	}
	return eng.Run(ctx, g, inputs)
}
