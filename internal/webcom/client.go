package webcom

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/translate"
)

// Client is a WebCom client: it connects to a master, authenticates it,
// and executes scheduled operations against its local middleware systems
// — but only when its own KeyNote policy authorises the master for the
// operation (the untrusted-master half of Figure 3).
type Client struct {
	// Name identifies the client to the master ("X", "Y", "Z").
	Name string
	// Key is the client's identity.
	Key *keys.KeyPair
	// Credentials are presented to the master during the handshake.
	Credentials []*keynote.Assertion
	// Checker holds the client's policy for authorising masters; nil
	// means "trust any authenticated master" (a Figure 9 system with no
	// local trust-management layer).
	Checker *keynote.Checker
	// Registry holds the client's local middleware systems.
	Registry *middleware.Registry
	// Local implements operations with no middleware home (pure compute);
	// may be nil.
	Local map[string]func(args []string) (string, error)
	// Live configures heartbeat liveness toward the master and the
	// handshake deadline. Zero value = defaults.
	Live Liveness
	// Reconnect, when enabled, re-dials a lost master with exponential
	// backoff and re-runs the full mutual-authentication handshake.
	Reconnect ReconnectPolicy
	// Dial overrides the transport dialer; nil means plain TCP. Chaos
	// tests inject faulty transports here.
	Dial func(addr string) (net.Conn, error)
	// Tel, when non-nil, receives execution metrics
	// (webcom.client.executions, webcom.client.denials). Nil disables
	// all instrumentation.
	Tel *telemetry.Registry
	// Tracer, when non-nil, records execution spans. Scheduled tasks
	// carry the master's trace/span IDs over the wire, so client spans
	// continue the master's request-scoped chain.
	Tracer *telemetry.Tracer
	// Codec selects the wire codec echoed to the master's offer:
	// CodecAuto/CodecBinary accept binary/1 when offered, CodecJSON
	// declines every offer and keeps the JSON fallback.
	Codec string
	// Sub, when non-nil, makes this client a sub-master (the paper's
	// Figure 3 recursion: a client that is itself a master). It announces
	// the submaster role at handshake, accepts delegated condensed
	// subgraphs — after independently re-linting the delegation
	// credential against the received subgraph's vocabulary — and
	// schedules them over Sub's own connected clients. Plain scheduled
	// tasks are relayed through Sub's scheduler too, so a middle tier
	// works under per-task dispatch as well as whole-subgraph delegation.
	Sub *Master

	engOnce sync.Once
	eng     *authz.Engine
	audit   *authz.AuditLog
	// relint is the delegation relint-skip table: chains that already
	// linted clean under the current policy epoch are admitted without a
	// second policylint pass (see authz.DelegationVerdicts).
	relint *authz.DelegationVerdicts

	// delegCancels maps in-flight delegation task IDs to their context
	// cancel functions, so a delegate_cancel frame from the root (the
	// delegation was withdrawn, or a speculative duplicate won) stops the
	// subgraph evaluation instead of letting it run to the deadline.
	delegMu      sync.Mutex
	delegCancels map[uint64]context.CancelFunc
	// closureCache and credCache amortise repeat delegations: decoded
	// subgraph closures keyed by content hash and parsed credentials
	// keyed by exact text (see delegate.go). Both are content-addressed
	// pure-decode caches — policy never participates, so they survive
	// engine epoch bumps; the relint table and decision caches carry the
	// security invalidation.
	closureCache map[string]*closureEntry
	credCache    map[string]*keynote.Assertion

	mu          sync.Mutex
	conn        *conn
	master      string // authenticated master principal
	masterCreds []*keynote.Assertion
	// session is the master's credential set admitted into the client's
	// authz engine at handshake; per-operation authorisation of the
	// master is decided from its cache. Nil when Checker is nil.
	session *authz.CredentialSession
	// verdicts is the admission-time verdict set for the current
	// session (see verdicts.go); nil when Checker is nil.
	verdicts *verdictSet
	addr     string
	closed   bool
	// life is the context every task and delegation runs under; Close
	// cancels it, which also stops a backing-off redial.
	life context.Context
	stop context.CancelFunc
	done chan struct{}
	// taskGs holds the ids of the goroutines that run this client's
	// tasks (see asTask).
	taskGs map[uint64]struct{}
}

// Engine returns the client's authorisation engine (lazily built from
// Checker; nil when the client trusts any authenticated master).
func (cl *Client) Engine() *authz.Engine {
	cl.engOnce.Do(func() {
		if cl.Checker != nil {
			cl.eng = authz.NewEngine(cl.Checker, authz.WithTelemetry(cl.Tel))
		}
		cl.audit = authz.NewAuditLog(256)
		cl.relint = authz.NewDelegationVerdicts(cl.eng, cl.Tel)
	})
	return cl.eng
}

// relintTable returns the client's delegation relint-skip table (built
// alongside the engine; epoch-guarded by it when the client has one).
func (cl *Client) relintTable() *authz.DelegationVerdicts {
	cl.Engine()
	return cl.relint
}

// registerDelegate makes an in-flight delegation cancellable by TaskID.
func (cl *Client) registerDelegate(id uint64, cancel context.CancelFunc) {
	cl.delegMu.Lock()
	if cl.delegCancels == nil {
		cl.delegCancels = make(map[uint64]context.CancelFunc)
	}
	cl.delegCancels[id] = cancel
	cl.delegMu.Unlock()
}

func (cl *Client) unregisterDelegate(id uint64) {
	cl.delegMu.Lock()
	delete(cl.delegCancels, id)
	cl.delegMu.Unlock()
}

// cancelDelegate fires the cancel function for an in-flight delegation,
// reporting whether one was found (an unknown ID — already finished, or
// never ours — is a no-op).
func (cl *Client) cancelDelegate(id uint64) bool {
	cl.delegMu.Lock()
	cancel, ok := cl.delegCancels[id]
	cl.delegMu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

// Audit returns the client's denial log: operations it refused to run
// for the master, with full decision traces.
func (cl *Client) Audit() *authz.AuditLog {
	cl.Engine()
	return cl.audit
}

func (cl *Client) dial(life context.Context, addr string) (net.Conn, error) {
	if cl.Dial != nil {
		return cl.Dial(addr)
	}
	var d net.Dialer
	return d.DialContext(life, "tcp", addr)
}

// Connect dials the master, runs the mutual authentication handshake and
// starts serving scheduled tasks in the background. If Reconnect is
// enabled, a lost connection is re-established (with a fresh handshake)
// until the reconnect budget is exhausted or Close is called.
func (cl *Client) Connect(addr string) error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return errors.New("webcom: client is closed")
	}
	cl.addr = addr
	if cl.life == nil {
		cl.life, cl.stop = context.WithCancel(context.Background())
	}
	life := cl.life
	cl.mu.Unlock()

	c, err := cl.handshake(life, addr)
	if err != nil {
		return err
	}
	// Close either sees done (and waits for supervise) or ran first and
	// has already severed c.
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return errors.New("webcom: client is closed")
	}
	done := make(chan struct{})
	cl.done = done
	cl.mu.Unlock()
	go cl.supervise(c, done)
	return nil
}

// handshake dials addr and runs the mutual authentication handshake
// under a read deadline, returning the authenticated connection. Ending
// life (Close) severs a handshake still in flight.
func (cl *Client) handshake(life context.Context, addr string) (*conn, error) {
	raw, err := cl.dial(life, addr)
	if err != nil {
		return nil, fmt.Errorf("webcom: client dial: %w", err)
	}
	live := cl.Live.withDefaults()
	c := newConn(raw, live.IdleTimeout)
	defer context.AfterFunc(life, func() { c.close() })()
	// A master (or impostor) that goes silent mid-handshake must not
	// hang Connect: the whole exchange runs under a deadline.
	c.setHandshakeDeadline(live.HandshakeTimeout)

	ch, err := c.recv()
	if err != nil || ch.Type != msgChallenge {
		c.close()
		return nil, errors.New("webcom: handshake: no challenge from master")
	}
	counterNonce, err := newNonce()
	if err != nil {
		c.close()
		return nil, err
	}
	credTexts := make([]string, len(cl.Credentials))
	for i, a := range cl.Credentials {
		credTexts[i] = a.Text()
	}
	role := ""
	if cl.Sub != nil {
		role = roleSubmaster
	}
	// Pick one of the master's offered codecs (an old master offers
	// none; Codec=CodecJSON declines them all).
	wantCodec := pickCodec(cl.Codec, ch.Codecs)
	if err := c.send(&msg{
		Type:        msgHello,
		Name:        cl.Name,
		Principal:   cl.Key.PublicID(),
		Sig:         cl.Key.Sign(handshakePayload("client", ch.Nonce, cl.Key.PublicID())),
		Nonce:       counterNonce,
		Role:        role,
		Credentials: credTexts,
		Codec:       wantCodec,
	}); err != nil {
		c.close()
		return nil, err
	}
	welcome, err := c.recv()
	if err != nil {
		c.close()
		return nil, fmt.Errorf("webcom: handshake: %w", err)
	}
	if welcome.Type == msgReject {
		c.close()
		return nil, fmt.Errorf("webcom: master rejected client: %s", welcome.Err)
	}
	if welcome.Type != msgWelcome {
		c.close()
		return nil, errors.New("webcom: handshake: unexpected message from master")
	}
	// Authenticate the master: it must prove possession of the key it
	// claimed in the challenge, and the two claims must agree.
	if welcome.Principal != ch.Principal {
		c.close()
		return nil, errors.New("webcom: master principal changed during handshake")
	}
	if err := keys.Verify(welcome.Principal,
		handshakePayload("master", counterNonce, welcome.Principal), welcome.Sig); err != nil {
		c.close()
		return nil, fmt.Errorf("webcom: master authentication failed: %w", err)
	}
	// The master confirms the codec in the welcome; both sides switch
	// right here, after the last JSON frame of the handshake.
	if wantCodec == codecBinaryV1 && welcome.Codec == wantCodec {
		c.setBinary()
	}
	c.clearDeadline()

	// Keep the master's presented credentials: the client's policy may
	// trust a root key that merely *delegates* to this master, in which
	// case the per-operation check below needs the chain (the
	// decentralised half of Figure 3). Malformed credentials are dropped
	// here; forged ones are rejected once, at session admission — their
	// signatures are never re-checked per operation.
	var masterCreds []*keynote.Assertion
	for _, text := range welcome.Credentials {
		if a, err := keynote.Parse(text); err == nil {
			masterCreds = append(masterCreds, a)
		}
	}
	var session *authz.CredentialSession
	var verdicts *verdictSet
	if eng := cl.Engine(); eng != nil {
		session = eng.Session(masterCreds)
		verdicts = newVerdictSet(eng, session)
	}
	cl.mu.Lock()
	if cl.closed {
		// Close ran while this handshake was in flight (a reconnect); it
		// could not see this connection, so it must not go live.
		cl.mu.Unlock()
		c.close()
		return nil, errors.New("webcom: client is closed")
	}
	cl.conn = c
	cl.master = welcome.Principal
	cl.masterCreds = masterCreds
	cl.session = session
	cl.verdicts = verdicts
	cl.mu.Unlock()
	return c, nil
}

// Master returns the authenticated master principal.
func (cl *Client) Master() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.master
}

// Close disconnects from the master and stops any reconnection. It
// first cancels the context in-flight tasks and delegations run under,
// then severs the connection, and returns once the serve and reconnect
// loop and every task it started have exited, so a Dial hook must not
// call it. A Local operation of a scheduled task may close its own
// client, as a crash does: that call severs and returns at once, since
// a task cannot outwait itself. Closing another client from a task
// waits like any other caller. A connection that had already dropped
// is not an error.
func (cl *Client) Close() error {
	self := goid()
	cl.mu.Lock()
	if !cl.closed {
		cl.closed = true
		if cl.stop != nil {
			cl.stop()
		}
	}
	c := cl.conn
	_, fromTask := cl.taskGs[self]
	cl.mu.Unlock()
	var err error
	if c != nil {
		if err = c.close(); errors.Is(err, net.ErrClosed) {
			err = nil
		}
	}
	if !fromTask {
		cl.Wait()
	}
	return err
}

// asTask runs f on the calling goroutine as one of this client's task
// goroutines, so that a Close called from f knows it runs inside one of
// the tasks it would wait for, and marks wg done when f returns. Tasks
// of other clients are not in the set. Goroutines register once, not
// per task: a pool worker runs many tasks.
func (cl *Client) asTask(wg *sync.WaitGroup, f func()) {
	defer wg.Done()
	id := goid()
	cl.mu.Lock()
	if cl.taskGs == nil {
		cl.taskGs = make(map[uint64]struct{})
	}
	cl.taskGs[id] = struct{}{}
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.taskGs, id)
		cl.mu.Unlock()
	}()
	f()
}

// goid returns the calling goroutine's id, read from the first line of
// its stack trace ("goroutine 7 [running]:"); Go offers no other
// identity for the current goroutine.
func goid() uint64 {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// Wait blocks until the connection to the master ends for good —
// including any reconnection attempts.
func (cl *Client) Wait() {
	cl.mu.Lock()
	done := cl.done
	cl.mu.Unlock()
	if done != nil {
		<-done
	}
}

// supervise serves the connection and, when it dies, re-establishes it
// under the reconnect policy until closed or out of budget.
func (cl *Client) supervise(c *conn, done chan struct{}) {
	defer close(done)
	rc := cl.Reconnect.withDefaults()
	for {
		cl.serve(c)
		// A closed client's redial returns at once.
		if !cl.Reconnect.Enabled {
			return
		}
		next, ok := cl.redial(rc)
		if !ok {
			return
		}
		c = next
	}
}

// redial re-establishes the connection with exponential backoff and a
// full re-run of the mutual authentication handshake.
func (cl *Client) redial(rc ReconnectPolicy) (*conn, bool) {
	cl.mu.Lock()
	addr := cl.addr
	life := cl.life
	cl.mu.Unlock()
	for attempt := 0; rc.MaxAttempts < 0 || attempt < rc.MaxAttempts; attempt++ {
		t := time.NewTimer(rc.backoff(attempt))
		select {
		case <-life.Done():
			t.Stop()
			return nil, false
		case <-t.C:
		}
		c, err := cl.handshake(life, addr)
		if err == nil {
			return c, true
		}
	}
	return nil, false
}

// taskWorkers is the size of the per-connection execution pool and its
// queue depth. Tasks beyond the queue spill to dedicated goroutines, so
// a saturated pool delays nothing — it only stops the steady state from
// paying a goroutine spawn per task.
const (
	taskWorkers   = 4
	taskQueueSize = 256
)

// serve handles one established connection until it dies: it answers
// the master's pings, heartbeats the master in turn, and executes
// scheduled tasks on a small worker pool. It owns every goroutine it
// starts and returns only after all of them have exited. The work runs
// under a context cancelled when the connection ends, since no result
// can reach the master after that.
func (cl *Client) serve(c *conn) {
	cl.mu.Lock()
	ctx, cancel := context.WithCancel(cl.life)
	cl.mu.Unlock()
	// Heartbeat toward the master: a silent (partitioned) master is
	// indistinguishable from a healthy idle one without pings. The read
	// loop closes c before the deferred stop runs.
	stopBeat := heartbeat(c, cl.Live.withDefaults(), func(string) { c.close() })
	defer stopBeat()
	var wg sync.WaitGroup
	defer wg.Wait()
	// Execution pool: the read loop is the only sender into taskCh, so
	// closing it on exit is race-free; workers drain and quit.
	taskCh := make(chan *msg, taskQueueSize)
	defer close(taskCh)
	defer cancel()
	wg.Add(taskWorkers)
	for i := 0; i < taskWorkers; i++ {
		go cl.asTask(&wg, func() {
			for m := range taskCh {
				cl.run(ctx, c, m)
			}
		})
	}
	spawn := func(m *msg) {
		wg.Add(1)
		go cl.asTask(&wg, func() { cl.run(ctx, c, m) })
	}
	for {
		m, err := c.recv()
		if err != nil {
			c.close()
			return
		}
		switch m.Type {
		case msgPing:
			c.send(pongMsg)
			msgRelease(m)
		case msgSchedule:
			select {
			case taskCh <- m:
			default:
				// Queue full: spill to a fresh goroutine rather than
				// block the read loop — pings must keep flowing even
				// under a task flood.
				spawn(m)
			}
		case msgDelegate:
			// Whole-subgraph delegations run long and are rare; they
			// always get their own goroutine so they cannot wedge the
			// task pool.
			spawn(m)
		case msgDelegateCancel:
			// The root abandoned the delegation (timeout, or a
			// speculative duplicate finished first): stop evaluating so
			// no further nodes fire on a subgraph nobody is waiting for.
			if cl.cancelDelegate(m.TaskID) {
				cl.Tel.Counter("webcom.client.delegation.cancelled").Inc()
			}
			msgRelease(m)
		default:
			msgRelease(m)
		}
	}
}

// run executes one scheduled task or delegated subgraph and ships the
// closing result frame back, releasing both the request and the reply
// to the pool. A delegation runs under its own cancellable context,
// registered by TaskID so a delegate_cancel frame can abort it
// mid-subgraph. ctx ends only with the connection (or just before Close
// severs it), and the master then fails the request over to another
// client: work that starts after that is dropped, and a result computed
// under it, which may be the cancellation itself, is not sent.
func (cl *Client) run(ctx context.Context, c *conn, m *msg) {
	defer msgRelease(m)
	if ended(ctx) {
		return
	}
	reply := msgAcquire()
	defer msgRelease(reply)
	var err error
	if m.Type == msgDelegate {
		ctx, cancel := context.WithCancel(ctx)
		cl.registerDelegate(m.TaskID, cancel)
		var st cg.Stats
		reply.Result, st, reply.Denied, err = cl.executeDelegate(ctx, c, m)
		reply.Fired, reply.Expanded = st.Fired, st.Expanded
		cl.unregisterDelegate(m.TaskID)
		cancel()
	} else {
		reply.Result, reply.Denied, err = cl.execute(ctx, m)
	}
	if ended(ctx) {
		return
	}
	reply.Type = msgResult
	reply.TaskID = m.TaskID
	if err != nil {
		reply.Err = err.Error()
	}
	// Ship the finished spans of this trace back with the result so the
	// tier above can merge them into one connected chain.
	if m.TraceID != "" && cl.Tracer != nil {
		reply.Spans = cl.Tracer.Trace(m.TraceID)
	}
	c.send(reply)
}

// ended reports whether ctx is done. Unlike ctx.Err it takes no lock,
// so the pool workers sharing one context do not contend on it.
func ended(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// execute runs one scheduled operation: first the client's own
// authorisation of the master (L2), then the middleware invocation under
// native security (L1).
func (cl *Client) execute(ctx context.Context, m *msg) (result string, denied bool, err error) {
	// The scheduled message may carry the master's trace identifiers;
	// continuing them parents this client's spans under the master's
	// dispatch span, so one request-scoped chain covers both processes.
	ctx = telemetry.WithTracer(ctx, cl.Tracer)
	ctx, span := telemetry.StartRemoteSpan(ctx, "client.execute", m.TraceID, m.SpanID)
	defer span.Finish()
	span.SetAttr("op", m.Op)
	cl.Tel.Counter("webcom.client.executions").Inc()

	// L2: does this client's policy let the master schedule this op? The
	// master's presented credentials participate, so the policy may name
	// a root that delegated scheduling authority to this master. The
	// session was admitted at handshake; this is a cached decision, not
	// a signature verification.
	cl.mu.Lock()
	master := cl.master
	session := cl.session
	verdicts := cl.verdicts
	cl.mu.Unlock()
	if session != nil {
		// Eligible sessions answer from the admission-time verdict set;
		// the rest take the full cached decision.
		allowed, d, err := verdicts.authorise(ctx, master, m.Op, m.Annotations, m.Args, cl.Audit(), master)
		if err != nil {
			return "", false, err
		}
		if !allowed {
			cl.Tel.Counter("webcom.client.denials").Inc()
			span.SetAttr("denied", "true")
			if d == nil {
				return "", true, fmt.Errorf("client policy refuses master for op %s (admitted-session verdict)", m.Op)
			}
			return "", true, fmt.Errorf("client policy refuses master for op %s (denied by %s)", m.Op, d.Trace.DeniedBy())
		}
	}

	// Local pure-compute operation?
	if cl.Local != nil {
		if fn, ok := cl.Local[m.Op]; ok {
			out, err := fn(m.Args)
			return out, false, err
		}
	}

	// A sub-master relays plain tasks down to its own clients: the middle
	// tier of a federation tree executes nothing itself, it re-schedules
	// under its own policy. Denials below — the sub-master's policy
	// refusing every client, or a leaf's own refusal — propagate as
	// denials, not transport faults, so no tier above retries them.
	if cl.Sub != nil {
		t := cg.Task{Graph: "relay", NodeID: m.Op, OpName: m.Op, Args: m.Args, Annotations: m.Annotations}
		out, err := cl.Sub.Executor()(ctx, t, &cg.Opaque{OpName: m.Op})
		if err != nil {
			if errors.Is(err, ErrTaskDenied) || errors.Is(err, ErrNoAuthorisedClient) {
				cl.Tel.Counter("webcom.client.denials").Inc()
				span.SetAttr("denied", "true")
				return "", true, err
			}
			return "", false, err
		}
		return out, false, nil
	}

	// Middleware operation: op is "<ObjectType>.<operation>" and the
	// Domain annotation selects the system.
	dot := strings.LastIndex(m.Op, ".")
	if dot <= 0 {
		return "", false, fmt.Errorf("webcom: client %s cannot execute op %q", cl.Name, m.Op)
	}
	ot, operation := m.Op[:dot], m.Op[dot+1:]
	domain := rbac.Domain(m.Annotations[translate.AttrDomain])
	user := rbac.User(m.Annotations["User"])
	if domain == "" {
		return "", false, fmt.Errorf("webcom: op %q scheduled without a Domain annotation", m.Op)
	}
	if cl.Registry == nil {
		return "", false, fmt.Errorf("webcom: client %s has no middleware registry", cl.Name)
	}
	sys, err := cl.systemForDomain(ctx, domain)
	if err != nil {
		return "", false, err
	}
	// Partial specification (Section 6): no user named — run as any
	// authorised user in the given (domain, role).
	if user == "" {
		role := rbac.Role(m.Annotations[translate.AttrRole])
		u, err := cl.pickUser(ctx, sys, domain, role, rbac.ObjectType(ot), rbac.Permission(operation))
		if err != nil {
			return "", true, err
		}
		user = u
	}
	out, err := sys.Invoke(ctx, user, domain, rbac.ObjectType(ot), operation, m.Args)
	var d *middleware.ErrDenied
	if errors.As(err, &d) {
		cl.Tel.Counter("webcom.client.denials").Inc()
		span.SetAttr("denied", "true")
		return "", true, err
	}
	return out, false, err
}

// systemForDomain finds the registered middleware system owning a domain.
func (cl *Client) systemForDomain(ctx context.Context, d rbac.Domain) (middleware.System, error) {
	for _, s := range cl.Registry.All() {
		p, err := s.ExtractPolicy(ctx)
		if err != nil {
			continue
		}
		for _, dom := range p.Domains() {
			if dom == d {
				return s, nil
			}
		}
		// A system may host the domain without any policy rows yet;
		// check its components too.
		for _, c := range s.Components() {
			if c.Domain == d {
				return s, nil
			}
		}
	}
	return nil, fmt.Errorf("webcom: client %s has no middleware system for domain %q", cl.Name, d)
}

// pickUser selects an authorised user for a partially specified task.
func (cl *Client) pickUser(ctx context.Context, sys middleware.System, d rbac.Domain, r rbac.Role, ot rbac.ObjectType, perm rbac.Permission) (rbac.User, error) {
	p, err := sys.ExtractPolicy(ctx)
	if err != nil {
		return "", err
	}
	var candidates []rbac.User
	if r != "" {
		candidates = p.UsersIn(d, r)
	} else {
		candidates = p.Users()
	}
	for _, u := range candidates {
		ok, err := sys.CheckAccess(ctx, u, d, ot, perm)
		if err == nil && ok {
			return u, nil
		}
	}
	return "", fmt.Errorf("webcom: no authorised user in (%s, %s) for %s.%s", d, r, ot, perm)
}
