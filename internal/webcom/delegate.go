package webcom

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"securewebcom/internal/authz"
	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/telemetry"
)

// closureEntry is one decoded, structurally validated delegated subgraph
// closure, keyed by the hash of the exact bytes received. Graphs are
// immutable once validated (evaluation state lives in the engine), so a
// cached entry is safe to evaluate concurrently. The cache is pure
// content-addressed decoding — no policy participates — so it needs no
// epoch invalidation, only a size cap.
type closureEntry struct {
	op           string
	lib          *cg.Library
	g            *cg.Graph
	ops, domains []string
}

const (
	closureCacheCap = 64
	credCacheCap    = 256
)

// errUnknownClosure is the error text a sub-master returns when a
// delegation arrives by LibraryRef for a closure it no longer holds;
// the parent reacts by resending the full Library, nothing else.
const errUnknownClosure = "webcom: unknown closure ref"

// closureKey hashes a delegation's entry name plus the exact closure
// bytes, iterated in sorted graph-name order so the key is independent
// of map ordering. The hex form doubles as the wire LibraryRef: both
// ends compute it from the same bytes, so a ref can only ever resolve
// to the exact closure the parent hashed.
func closureKey(op string, raw map[string]json.RawMessage) string {
	names := make([]string, 0, len(raw))
	for n := range raw {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	h.Write([]byte(op))
	for _, n := range names {
		h.Write([]byte{0})
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(raw[n])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// importClosure is cg.ImportClosure + cg.SubgraphVocabulary behind a
// content-addressed cache: a repeat delegation of byte-identical
// subgraph bytes skips the JSON decode, the structural re-validation and
// the vocabulary walk. Any changed byte changes the key and re-imports
// from scratch.
func (cl *Client) importClosure(op string, raw map[string]json.RawMessage) (*closureEntry, error) {
	key := closureKey(op, raw)
	cl.delegMu.Lock()
	e, ok := cl.closureCache[key]
	cl.delegMu.Unlock()
	if ok {
		return e, nil
	}
	lib, g, err := cg.ImportClosure(raw, op)
	if err != nil {
		return nil, err
	}
	ops, domains, err := cg.SubgraphVocabulary(lib, op)
	if err != nil {
		return nil, err
	}
	e = &closureEntry{op: op, lib: lib, g: g, ops: ops, domains: domains}
	cl.delegMu.Lock()
	if cl.closureCache == nil {
		cl.closureCache = make(map[string]*closureEntry)
	}
	if len(cl.closureCache) >= closureCacheCap {
		clear(cl.closureCache)
	}
	cl.closureCache[key] = e
	cl.delegMu.Unlock()
	return e, nil
}

// parseCredential is keynote.Parse behind a text-keyed cache. The mint
// cache upstream returns repeat credentials byte for byte, so the parse
// — the most expensive pure step of warm admission — becomes a map hit.
// Parsing is content-addressed and policy-free; signature verification
// and linting still happen (or are separately amortised) downstream.
func (cl *Client) parseCredential(text string) (*keynote.Assertion, error) {
	cl.delegMu.Lock()
	a, ok := cl.credCache[text]
	cl.delegMu.Unlock()
	if ok {
		return a, nil
	}
	a, err := keynote.Parse(text)
	if err != nil {
		return nil, err
	}
	cl.delegMu.Lock()
	if cl.credCache == nil {
		cl.credCache = make(map[string]*keynote.Assertion)
	}
	if len(cl.credCache) >= credCacheCap {
		clear(cl.credCache)
	}
	cl.credCache[text] = a
	cl.delegMu.Unlock()
	return a, nil
}

// executeDelegate is the sub-master half of federation: admit a delegated
// condensed subgraph, or refuse it. Admission is deliberately paranoid —
// the parent already linted the delegation before sending, but this tier
// re-derives the subgraph's vocabulary from the bytes it actually
// received and re-lints the credential against that, so a parent (or an
// impostor) shipping a credential wider than the subgraph, an unsigned
// or forged credential, or a subgraph the client's own policy refuses,
// is denied before any node fires. Denials are returned with denied=true
// so the parent treats them as policy decisions, never transport faults.
func (cl *Client) executeDelegate(ctx context.Context, c *conn, m *msg) (result string, st cg.Stats, denied bool, err error) {
	ctx = telemetry.WithTracer(ctx, cl.Tracer)
	ctx, span := telemetry.StartRemoteSpan(ctx, "client.delegate", m.TraceID, m.SpanID)
	defer span.Finish()
	span.SetAttr("subgraph", m.Op)
	cl.Tel.Counter("webcom.client.delegations").Inc()

	deny := func(reason error) (string, cg.Stats, bool, error) {
		cl.Tel.Counter("webcom.client.delegation.denied").Inc()
		span.SetAttr("denied", "true")
		return "", cg.Stats{}, true, reason
	}

	if cl.Sub == nil {
		return deny(fmt.Errorf("webcom: client %s is not a sub-master", cl.Name))
	}
	cl.mu.Lock()
	master := cl.master
	masterCreds := cl.masterCreds
	session := cl.session
	cl.mu.Unlock()

	// Reconstruct the subgraph from the received bytes (each graph is
	// re-validated structurally) and derive the vocabulary the delegation
	// credential must be scoped to — from what arrived, not from what the
	// parent claims. Byte-identical repeat closures answer from the
	// content-addressed cache; a delegation that arrives as a bare
	// LibraryRef must already be in that cache, under the exact hash of
	// the op and bytes this tier validated earlier — so the ref path can
	// never execute anything admission hasn't seen. A miss is a plain
	// error (not a denial): the parent resends the full closure.
	var ce *closureEntry
	if len(m.Library) == 0 && m.LibraryRef != "" {
		cl.delegMu.Lock()
		ce = cl.closureCache[m.LibraryRef]
		cl.delegMu.Unlock()
		if ce == nil || ce.op != m.Op {
			cl.Tel.Counter("webcom.client.closure.ref.misses").Inc()
			return "", cg.Stats{}, false, errors.New(errUnknownClosure)
		}
		cl.Tel.Counter("webcom.client.closure.ref.hits").Inc()
	} else {
		ce, err = cl.importClosure(m.Op, m.Library)
		if err != nil {
			return deny(fmt.Errorf("webcom: delegated subgraph rejected: %v", err))
		}
	}
	lib, g, ops, domains := ce.lib, ce.g, ce.ops, ce.domains
	scope := authz.DelegationScope{AppDomain: AppDomain, Operations: ops, Domains: domains}

	// The delegation credential: parsed, signature-verified (through the
	// authz session path when this client has a checker, directly
	// otherwise), issued by the authenticated master, and licensing this
	// client's key.
	var delegCreds []*keynote.Assertion
	for _, text := range m.Delegation {
		a, err := cl.parseCredential(text)
		if err != nil {
			return deny(fmt.Errorf("webcom: malformed delegation credential: %v", err))
		}
		delegCreds = append(delegCreds, a)
	}
	if len(delegCreds) == 0 {
		return deny(errors.New("webcom: delegation carries no credential"))
	}
	if eng := cl.Engine(); eng != nil {
		all := append(append([]*keynote.Assertion{}, masterCreds...), delegCreds...)
		sess := eng.Session(all)
		// A session with no rejections admitted the whole submitted set,
		// delegation credentials included — the common (and warm) case.
		// Only when something was refused do we pay for the text-keyed
		// membership check to find out whether it was one of ours.
		if len(sess.Rejected()) > 0 {
			admitted := make(map[string]bool, len(sess.Admitted()))
			for _, a := range sess.Admitted() {
				admitted[a.Text()] = true
			}
			for _, a := range delegCreds {
				if !admitted[a.Text()] {
					return deny(fmt.Errorf("webcom: delegation credential from %q not admitted (bad signature?)", a.Authorizer))
				}
			}
		}
	} else {
		for _, a := range delegCreds {
			if err := a.VerifySignature(nil); err != nil {
				return deny(fmt.Errorf("webcom: delegation credential rejected: %v", err))
			}
		}
	}
	head := delegCreds[0]
	if head.Authorizer != master {
		return deny(fmt.Errorf("webcom: delegation issued by %q, not the authenticated master", head.Authorizer))
	}
	licensed := false
	for _, p := range head.LicenseePrincipals() {
		if p == cl.Key.PublicID() {
			licensed = true
			break
		}
	}
	if !licensed {
		return deny(errors.New("webcom: delegation credential does not license this client"))
	}
	// Least privilege: the credential must be scoped to exactly this
	// subgraph's vocabulary. A wider mint is PL003; out-of-vocabulary
	// values are PL007. Either refuses the delegation. A chain that
	// already linted clean under the current policy epoch skips the
	// re-lint (the fingerprint covers parent, scope and the exact chain
	// texts, so any change re-lints from scratch).
	if skipped, err := cl.relintTable().Validate(master, delegCreds, scope); err != nil {
		return deny(err)
	} else if skipped {
		span.SetAttr("relint", "skipped")
	}

	// L2, as for any scheduled task: this client's own policy must let the
	// authenticated master schedule every operation the subgraph can fire.
	if session != nil {
		for _, op := range ops {
			d, err := session.Decide(ctx, taskQuery(master, op, nil, nil))
			if err != nil {
				return "", cg.Stats{}, false, err
			}
			if !d.Allowed {
				if !d.Trace.CacheHit {
					cl.Audit().Record(master, op, d)
				}
				cl.Tel.Counter("webcom.client.denials").Inc()
				return deny(fmt.Errorf("client policy refuses master for delegated op %s (denied by %s)", op, d.Trace.DeniedBy()))
			}
		}
	}

	// Evaluate the subgraph over this sub-master's own clients. The
	// deadline bounds the evaluation even if the parent vanishes
	// mid-subgraph, so no goroutine outlives the delegation for long.
	rp := cl.Sub.Retry.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, rp.DelegateTimeout)
	defer cancel()
	eng := &cg.Engine{Library: lib}
	// Stream one delegate_result frame per completed node back to the
	// parent when it asked for them (m.Stream): advisory progress only —
	// the closing result frame below stays the authoritative answer.
	// conn.send serialises internally, so worker goroutines emit
	// directly. (c is nil only when admission is driven without a
	// connection, in tests.)
	if c != nil && m.Stream {
		eng.OnFire = cl.streamFires(c, m.TaskID)
	}
	// Operations the sub-master can compute in-process (its Local map)
	// never pay a second scheduling hop; everything else dispatches over
	// Sub's own clients as usual. This is what makes a warm repeat
	// delegation cheap end to end: admission is amortised above, and the
	// subgraph body runs without further wire round-trips.
	if cl.Local != nil {
		relay := cl.Sub.Executor()
		eng.Exec = func(ctx context.Context, t cg.Task, op cg.Operator) (string, error) {
			if fn, ok := cl.Local[t.OpName]; ok {
				if _, isOpaque := op.(*cg.Opaque); isOpaque {
					return fn(t.Args)
				}
			}
			return relay(ctx, t, op)
		}
	}
	res, st, err := cl.Sub.Run(ctx, eng, g, m.Inputs)
	if err != nil {
		if ctx.Err() != nil {
			// Cancelled by the root (delegate_cancel) or timed out: no
			// one is waiting for this answer any more.
			span.SetAttr("cancelled", "true")
		}
		// A denial inside the subgraph stays an error (its message carries
		// "denied" up the tiers); denied=false distinguishes it from this
		// tier refusing the delegation itself.
		return "", st, false, err
	}
	span.SetAttr("result", res)
	return res, st, false, nil
}

// streamFires returns the cg.Engine OnFire hook that streams one
// delegate_result frame per completed node of a delegated subgraph back
// to the parent over c.
func (cl *Client) streamFires(c *conn, taskID uint64) func(t cg.Task, result string) {
	return func(t cg.Task, result string) {
		f := msgAcquire()
		f.Type = msgDelegateResult
		f.TaskID = taskID
		f.Node = t.NodeID
		f.Result = result
		c.send(f)
		msgRelease(f)
		cl.Tel.Counter("webcom.client.frames.streamed").Inc()
	}
}
