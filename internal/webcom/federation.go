// Hierarchical federation: the paper's Figure 3 makes a WebCom client
// "itself a master" — it receives a condensed node and schedules the
// subgraph across its own clients under the same mutual authentication.
// This file is the master half of that recursion: when the engine fires
// a Condensed node, the master offers the whole subgraph to a connected
// sub-master instead of evaporating it locally, provided
//
//   - the sub-master is authorised by this master's policy for every
//     operation the subgraph can fire (decided through the cached authz
//     session, like any task), and
//   - delegating is cheaper than per-task dispatch under the current
//     load picture (the sub-master's score vs. the best leaf's score
//     times the subgraph's task count), and
//   - a delegation credential can be minted scoped to exactly the
//     subgraph's operation/domain vocabulary and the resulting chain
//     lints clean (no PL003 widening) — enforced again, independently,
//     by the receiving sub-master before it honours the delegation.
//
// Failure semantics: a dead, refusing or timing-out sub-master never
// fails the run — the condenser reports "not handled" and the engine
// falls back to local evaporation, where every task still crosses the
// normal per-task authorisation path. Denials are never retried.
package webcom

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/telemetry"
)

// mintCache returns the master's delegation mint cache, lazily built and
// epoch-guarded by the master's authz engine: a KeyCOM catalogue commit
// that invalidates the engine orphans every cached credential with it.
func (m *Master) mintCache() *authz.MintCache {
	m.mintOnce.Do(func() {
		m.mints = authz.NewMintCache(m.Engine(), 0, m.Tel)
	})
	return m.mints
}

// submasterCandidates returns live, breaker-admitted sub-master
// connections authorised for every operation in ops, cheapest first.
func (m *Master) submasterCandidates(ctx context.Context, ops []string, annotations map[string]string) []*masterClient {
	m.mu.Lock()
	all := make([]*masterClient, 0, len(m.clients))
	for _, c := range m.clients {
		if c.role == roleSubmaster {
			all = append(all, c)
		}
	}
	m.mu.Unlock()

	now := time.Now()
	var out []*masterClient
	for _, c := range all {
		if c.isDead() || !c.brk.allow(now) {
			continue
		}
		if c.session != nil {
			allowed := true
			for _, op := range ops {
				// Same admission-time verdict set the dispatch plane uses
				// (verdicts.go), epoch-invalidated by KeyCOM commits.
				ok, _, err := c.verdicts.authorise(ctx, c.principal, op, annotations, nil, m.Audit(), c.name)
				if err != nil || !ok {
					allowed = false
					break
				}
			}
			if !allowed {
				continue
			}
		}
		out = append(out, c)
	}
	return m.orderByLoad(out)
}

// bestLeafScore is the cheapest per-task score among live non-sub-master
// clients, with ok=false when none is connected.
func (m *Master) bestLeafScore() (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	best, ok := 0.0, false
	for _, c := range m.clients {
		if c.role == roleSubmaster || c.dead {
			continue
		}
		s := c.load.score()
		if !ok || s < best {
			best, ok = s, true
		}
	}
	return best, ok
}

// delegPlan is the amortised per-subgraph preparation of a delegation:
// the vocabulary the credential must be scoped to, the opaque-task count
// the load gate weighs, and the serialised closure the wire carries. All
// three are pure functions of the immutable library, so one condensed
// graph delegated many times — repeat runs on the same engine, or a wide
// graph instantiating the same cell — pays the walks and the
// serialisation once. delegable=false records "evaporate locally".
type delegPlan struct {
	ops, domains []string
	nTasks       int
	closure      map[string]json.RawMessage
	// hash is closureKey over the canonicalised closure — the LibraryRef
	// a repeat delegation sends instead of the closure bytes.
	hash      string
	delegable bool
}

func newDelegPlan(lib *cg.Library, name string) *delegPlan {
	ops, domains, err := cg.SubgraphVocabulary(lib, name)
	if err != nil || len(ops) == 0 {
		// Nothing remotely schedulable in the subgraph (or it cannot be
		// resolved here): evaporate locally.
		return &delegPlan{}
	}
	nTasks, err := cg.OpaqueCount(lib, name)
	if err != nil {
		return &delegPlan{}
	}
	closure, err := cg.ExportClosure(lib, name)
	if err != nil {
		return &delegPlan{}
	}
	// Canonicalise each graph to the exact bytes the wire will carry:
	// json.Marshal of a RawMessage compacts and escapes it and is a fixed
	// point of itself, so the JSON codec (which re-marshals the map) and
	// the binary codec (which copies bytes verbatim) both deliver these
	// bytes unchanged. That makes the hash computed here equal to the
	// closureKey the sub-master derives from what it actually received —
	// the wire contract that lets repeat delegations go by LibraryRef.
	for n, raw := range closure {
		canon, err := json.Marshal(raw)
		if err != nil {
			return &delegPlan{}
		}
		closure[n] = canon
	}
	return &delegPlan{ops: ops, domains: domains, nTasks: nTasks,
		closure: closure, hash: closureKey(name, closure), delegable: true}
}

// Condenser returns the cg.Condenser that delegates whole condensed
// subgraphs to authorised sub-masters. Master.Run installs it whenever
// the engine evaluates with a graph library.
func (m *Master) Condenser(lib *cg.Library) cg.Condenser {
	rp := m.Retry.withDefaults()
	var (
		planMu sync.Mutex
		plans  = map[string]*delegPlan{}
	)
	return func(ctx context.Context, t cg.Task, op *cg.Condensed, inputs map[string]string) (string, cg.Stats, bool, error) {
		planMu.Lock()
		plan, ok := plans[op.GraphName]
		planMu.Unlock()
		if !ok {
			plan = newDelegPlan(lib, op.GraphName)
			planMu.Lock()
			plans[op.GraphName] = plan
			planMu.Unlock()
		}
		if !plan.delegable {
			return "", cg.Stats{}, false, nil
		}
		cands := m.submasterCandidates(ctx, plan.ops, t.Annotations)
		if len(cands) == 0 {
			return "", cg.Stats{}, false, nil
		}
		// Load-aware preference: delegating one subgraph costs one
		// sub-master slot; dispatching it flat costs one leaf slot per
		// opaque task. Delegate when the cheapest sub-master undercuts
		// the cheapest leaf scaled by the task count (and always when no
		// leaves are connected at all).
		if leaf, ok := m.bestLeafScore(); ok {
			if !loadTied(cands[0].load.score(), leaf*float64(plan.nTasks)) {
				return "", cg.Stats{}, false, nil
			}
		}
		scope := authz.DelegationScope{AppDomain: AppDomain, Operations: plan.ops, Domains: plan.domains}

		ctx, span := telemetry.StartSpan(ctx, "webcom.delegate")
		defer span.Finish()
		span.SetAttr("subgraph", op.GraphName)

		var lastErr error
		for ci, c := range cands {
			// Mint per candidate: the credential licenses exactly this
			// sub-master's principal for exactly this subgraph's
			// vocabulary, linted before it is ever trusted to the wire.
			// Both steps run through the mint cache, so a repeat
			// delegation of the same subgraph to the same sub-master
			// reuses the signed assertion byte for byte — no Ed25519, no
			// lint — which in turn lets the receiving side skip its
			// re-lint on the identical chain fingerprint.
			deleg, hit, err := m.mintCache().Mint(m.Key, c.principal, scope)
			if err != nil {
				lastErr = err
				continue
			}
			if hit {
				span.SetAttr("mint", "cached")
			}
			m.Tel.Counter("webcom.delegate.total").Inc()
			res, winner, err := m.delegateMaybeSteal(ctx, c, cands[ci+1:], op.GraphName, plan, inputs, scope, deleg, rp)
			if err != nil {
				lastErr = err
				if ctx.Err() != nil {
					return "", cg.Stats{}, false, ctx.Err()
				}
				if errors.Is(err, errMasterClosed) {
					return "", cg.Stats{}, false, err
				}
				continue
			}
			c = winner
			if res.Denied {
				// The sub-master's own policy (or its lint of our
				// credential) refused the delegation. A policy decision:
				// don't shop the subgraph around, evaporate locally where
				// per-task authorisation still governs every firing.
				m.Tel.Counter("webcom.delegate.denied").Inc()
				span.SetAttr("denied", "true")
				msgRelease(res)
				return "", cg.Stats{}, false, nil
			}
			if res.Err != "" {
				lastErr = errors.New(res.Err)
				if strings.Contains(res.Err, "denied") {
					// A task inside the subgraph was denied at a lower
					// tier; local evaporation would deny it identically,
					// so surface the denial instead of retrying.
					err := fmt.Errorf("%w: delegated subgraph %s on %s: %s",
						ErrTaskDenied, op.GraphName, c.name, res.Err)
					msgRelease(res)
					return "", cg.Stats{}, true, err
				}
				msgRelease(res)
				continue
			}
			span.SetAttr("submaster", c.name)
			result, stats := res.Result, cg.Stats{Fired: res.Fired, Expanded: res.Expanded}
			msgRelease(res)
			return result, stats, true, nil
		}
		// Every sub-master failed transport-wise: fall back to local
		// evaporation so the run survives a dying sub-tier.
		if lastErr != nil {
			span.SetAttr("fallback", lastErr.Error())
		}
		return "", cg.Stats{}, false, nil
	}
}

// delegateMaybeSteal delegates one subgraph to primary and, when the
// retry policy arms speculation, watches for stragglers: if no progress
// frame has arrived by SpeculateAfter of the delegate deadline, the same
// subgraph is re-delegated to the cheapest idle sibling sub-master (work
// stealing) under its own freshly scoped credential, and the first
// closing frame wins. The loser is cancelled, which withdraws its
// pending waiter and sends a delegate_cancel frame, so its late result
// is dropped by the read loop and its evaluation stops — one subgraph
// never yields two honoured answers. Speculation is deliberately
// conservative: it fires only when the primary has streamed nothing at
// all, so a healthy-but-slow sub-master that is making progress is never
// duplicated. A denial from either branch is authoritative — the other
// branch is cancelled and the denial returned, never re-shopped. Both
// branches have returned by the time delegateMaybeSteal does.
func (m *Master) delegateMaybeSteal(ctx context.Context, primary *masterClient, siblings []*masterClient,
	entry string, plan *delegPlan, inputs map[string]string,
	scope authz.DelegationScope, deleg *keynote.Assertion, rp RetryPolicy) (*msg, *masterClient, error) {

	// First streamed frame disarms speculation: the primary is alive and
	// working, however slowly. Streaming is requested only when the
	// frames have a consumer — a registered progress hook, or armed
	// speculation that needs the straggler signal. With one sub-master
	// and no hook nobody would read them, so the wing runs frame-free.
	speculate := rp.SpeculateAfter > 0 && len(siblings) > 0
	progressed := make(chan struct{})
	var progressOnce sync.Once
	var onFrame func(node, result string)
	if m.OnDelegateProgress != nil || speculate {
		onFrame = func(node, result string) {
			progressOnce.Do(func() { close(progressed) })
			if m.OnDelegateProgress != nil {
				m.OnDelegateProgress(node, result)
			}
		}
	}

	type outcome struct {
		res *msg
		c   *masterClient
		err error
	}
	// Buffered for both branches: a branch never blocks on its send, so
	// whichever one loses can always finish.
	outs := make(chan outcome, 2)
	runCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	launched := 0
	launch := func(c *masterClient, cred *keynote.Assertion, f func(node, result string)) {
		launched++
		go func() {
			res, err := m.delegate(runCtx, c, entry, plan, inputs, cred, f)
			outs <- outcome{res: res, c: c, err: err}
		}()
	}
	launch(primary, deleg, onFrame)
	var thief *masterClient

	var specC <-chan time.Time
	if speculate {
		st := time.NewTimer(time.Duration(rp.SpeculateAfter * float64(rp.DelegateTimeout)))
		defer st.Stop()
		specC = st.C
	}

	var firstErr error
	for launched > 0 {
		select {
		case <-specC:
			specC = nil
			select {
			case <-progressed:
				continue // streaming already: not a straggler
			default:
			}
			thief = stealCandidate(siblings, primary)
			if thief == nil {
				continue
			}
			cred, _, err := m.mintCache().Mint(m.Key, thief.principal, scope)
			if err != nil {
				continue
			}
			m.Tel.Counter("webcom.delegate.speculations").Inc()
			launch(thief, cred, m.OnDelegateProgress)
		case out := <-outs:
			launched--
			if out.err != nil {
				out.c.brk.failure(time.Now())
				m.Tel.Counter("webcom.delegate.failures").Inc()
				if firstErr == nil && !errors.Is(out.err, context.Canceled) {
					firstErr = out.err
				}
				continue // the other branch, if any, may still answer
			}
			// First closing frame wins: cancel the other branch and
			// await it, dropping whatever it answers.
			if out.c == thief && !out.res.Denied && out.res.Err == "" {
				m.Tel.Counter("webcom.delegate.steal.wins").Inc()
			}
			cancelAll()
			for ; launched > 0; launched-- {
				msgRelease((<-outs).res)
			}
			out.c.brk.success()
			return out.res, out.c, nil
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
		if firstErr == nil {
			firstErr = errors.New("webcom: delegation abandoned")
		}
	}
	return nil, primary, firstErr
}

// delegate ships one condensed subgraph to sub-master c over the shared
// round trip and returns the closing result frame. Streaming is
// requested, and progress frames fed to onFrame, when onFrame is non-nil.
// A delegation that ends by deadline or cancellation tells the
// sub-master to stop evaluating with a delegate_cancel frame.
//
// A connection that has already carried this closure sends only its
// content hash (LibraryRef): the sub-master answers from its
// content-addressed cache, and the warm wire frame shrinks from the
// whole subgraph JSON to 64 bytes. If the sub has evicted the entry it
// answers errUnknownClosure — an optimisation miss, not a policy
// decision — and the closure is resent in full.
func (m *Master) delegate(ctx context.Context, c *masterClient, entry string,
	plan *delegPlan, inputs map[string]string, deleg *keynote.Assertion,
	onFrame func(node, result string)) (*msg, error) {
	send := func(byRef bool) (*msg, error) {
		req := &msg{
			Type:       msgDelegate,
			Op:         entry,
			Inputs:     inputs,
			Delegation: []string{deleg.Text()},
			Stream:     onFrame != nil,
		}
		if byRef {
			req.LibraryRef = plan.hash
		} else {
			req.Library = plan.closure
		}
		r, err := c.call(ctx, req, onFrame)
		if req.TaskID != 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			// Abandoned on the wire (deadline, run cancellation, or a
			// speculative duplicate won): best effort on a possibly
			// dead conn.
			c.conn.send(&msg{Type: msgDelegateCancel, TaskID: req.TaskID})
			m.Tel.Counter("webcom.delegate.cancels").Inc()
		}
		return r, err
	}

	span := telemetry.SpanFrom(ctx)
	byRef := plan.hash != "" && c.closureSent(plan.hash)
	if byRef {
		m.Tel.Counter("webcom.delegate.closure.refs").Inc()
		span.SetAttr("closure", "ref")
	}
	r, err := send(byRef)
	if err != nil {
		return nil, err
	}
	if byRef && r.Err == errUnknownClosure {
		// The sub evicted (or never completed caching) this closure:
		// unmark the connection and retry once with the full bytes.
		c.markClosure(plan.hash, false)
		m.Tel.Counter("webcom.delegate.closure.resends").Inc()
		span.SetAttr("closure", "resent")
		msgRelease(r)
		byRef = false
		if r, err = send(false); err != nil {
			return nil, err
		}
	}
	if !byRef && plan.hash != "" && !r.Denied && r.Err == "" {
		// A clean result proves the sub imported — and therefore cached —
		// exactly these bytes under exactly this hash; repeats on this
		// connection can go by ref.
		c.markClosure(plan.hash, true)
	}
	return r, nil
}
