package webcom

// Admission-time authorisation. The per-task authz.Decide call is
// correct but costs a canonical-query build plus a shared-cache lookup
// on every dispatch. For the sessions that dominate steady-state
// traffic the decision is a pure function of (connection, operation):
// the credential set is fixed at handshake and the governing assertions
// read only attributes that are constant for the session. For exactly
// those sessions we stamp each operation's verdict into a small
// per-connection cache the first time it is decided, and the hot path
// becomes one map lookup under the connection's own lock — no canonical
// query, no shared cache, no allocation.
//
// Soundness is the whole game here, and three guards keep the verdict
// set honest:
//
//  1. Eligibility. At admission we statically analyse every Conditions
//     program in the engine's policy and the session's admitted
//     credentials (keynote.ReferencedAttributes). The verdict may be
//     amortised only if no program uses $-indirection and every
//     referenced attribute is session-constant: app_domain, the
//     operation name and its derived ObjectType/Permission, and the
//     _MIN_TRUST/_MAX_TRUST/_VALUES/_ACTION_AUTHORIZERS specials
//     (authorizers are pinned to the session principal). A policy that
//     reads arg0/num_args or IDE annotations varies per task and
//     disqualifies the whole session — it keeps the per-task path.
//
//  2. Annotation collision. Task annotations are merged over the query
//     attributes and may shadow them, so even an eligible session must
//     take the slow path for a task whose annotations touch any
//     referenced attribute name.
//
//  3. Epoch invalidation. The set is an authz.EpochCache guarded by the
//     engine; its contract (cache.go in package authz, DESIGN.md §8)
//     means a decision computed under epoch N can never answer a query
//     in epoch N+1.
//
// The denial-never-retried invariant is untouched: a stamped denial
// returns the same ErrTaskDenied the slow path would, and the denial
// audit fires exactly once, when the verdict is first decided (slow
// path).

import (
	"context"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
	"securewebcom/internal/translate"
)

// verdictSetCap bounds a connection's verdict set (one entry per
// distinct operation decided).
const verdictSetCap = 1024

// sessionConstantAttrs are the query attributes that cannot change for
// the lifetime of an admitted session: a Conditions program confined to
// these yields one verdict per operation.
var sessionConstantAttrs = map[string]struct{}{
	"app_domain":             {},
	"operation":              {},
	translate.AttrObjectType: {},
	translate.AttrPermission: {},
	"_MIN_TRUST":             {},
	"_MAX_TRUST":             {},
	"_VALUES":                {},
	"_ACTION_AUTHORIZERS":    {},
}

// verdictSet is a connection's admitted session plus its
// admission-time verdicts: allowed-or-not per operation.
type verdictSet struct {
	session *authz.CredentialSession
	refs    map[string]struct{}     // attributes the governing assertions read
	ops     *authz.EpochCache[bool] // nil when the session is ineligible
}

// newVerdictSet analyses the engine policy plus the session's admitted
// credentials and returns the connection's verdict set, stamping only
// when every governing assertion is provably session-constant.
func newVerdictSet(engine *authz.Engine, session *authz.CredentialSession) *verdictSet {
	refs := keynote.AttrRefs{Names: make(map[string]struct{})}
	collect := func(as []*keynote.Assertion) {
		for _, a := range as {
			r := keynote.ReferencedAttributes(a.Conditions)
			refs.Dynamic = refs.Dynamic || r.Dynamic
			for n := range r.Names {
				refs.Names[n] = struct{}{}
			}
		}
	}
	collect(engine.Checker().Policy())
	collect(session.Admitted())
	vs := &verdictSet{session: session, refs: refs.Names}
	if refs.Subset(sessionConstantAttrs) {
		vs.ops = authz.NewEpochCache[bool](engine, verdictSetCap, nil, "", "")
	}
	return vs
}

// authorise answers whether the session's principal may run op: from
// the stamped verdict when there is one, else through session.Decide,
// whose result is stamped under the epoch read before deciding. A
// freshly computed denial (not a decision-cache hit) is recorded in
// audit against peer, so each distinct denial is audited once. d is nil
// when the answer came from a stamped verdict.
func (v *verdictSet) authorise(ctx context.Context, principal, op string, annotations map[string]string, args []string, audit *authz.AuditLog, peer string) (allowed bool, d *authz.Decision, err error) {
	stampable := v.ops != nil && !v.shadowed(annotations)
	var epoch uint64
	if stampable {
		var ok bool
		if allowed, epoch, ok = v.ops.Get(op); ok {
			return allowed, nil, nil
		}
	}
	d, err = v.session.Decide(ctx, taskQuery(principal, op, annotations, args))
	if err != nil {
		return false, nil, err
	}
	if stampable {
		v.ops.Put(op, d.Allowed, epoch)
	}
	if !d.Allowed && !d.Trace.CacheHit {
		audit.Record(peer, op, d)
	}
	return d.Allowed, d, nil
}

// shadowed reports whether the task's annotations touch an attribute
// the governing assertions read.
func (v *verdictSet) shadowed(annotations map[string]string) bool {
	for k := range annotations {
		if _, ok := v.refs[k]; ok {
			return true
		}
	}
	return false
}
