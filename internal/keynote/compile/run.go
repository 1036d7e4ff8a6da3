package compile

import (
	"errors"

	"securewebcom/internal/keynote"
)

// valuation is the per-check scratch state: attribute slots, the value
// and licensee stacks, and the dense principal valuation arrays. It is
// pooled on the DAG so steady-state checks allocate only the Result.
type valuation struct {
	d          *DAG
	slots      []string
	stack      []keynote.Value
	licStack   []int
	condVal    []int
	val        []int
	written    []bool
	grantedBy  []int
	extraNames []string
	extraOf    map[string]int
	regexes    keynote.RegexCache

	// Per-check query context for dynamic ($-indirect) lookups.
	attrs       map[string]string
	values      []string
	authorizers []string
}

func newValuation(d *DAG) *valuation {
	n := len(d.principals)
	return &valuation{
		d:         d,
		slots:     make([]string, len(d.slotNames)),
		condVal:   make([]int, 0, len(d.evalList)),
		val:       make([]int, n, n+4),
		written:   make([]bool, n, n+4),
		grantedBy: make([]int, n, n+4),
	}
}

func (v *valuation) reset(q keynote.Query, values []string) {
	n := len(v.d.principals)
	v.val = v.val[:n]
	v.written = v.written[:n]
	v.grantedBy = v.grantedBy[:n]
	for i := 0; i < n; i++ {
		v.val[i] = 0
		v.written[i] = false
		v.grantedBy[i] = -1
	}
	v.extraNames = v.extraNames[:0]
	for k := range v.extraOf {
		delete(v.extraOf, k)
	}
	v.attrs = q.Attributes
	v.values = values
	v.authorizers = q.Authorizers
	for i, name := range v.d.slotNames {
		v.slots[i] = v.lookup(name)
	}
}

// lookup resolves an attribute by name, statically slotted or dynamic
// ($-indirect), through keynote.Lookup as the interpreter does.
func (v *valuation) lookup(name string) string {
	return keynote.Lookup(name, v.attrs, v.values, v.authorizers)
}

// pidFor interns a canonical principal for this check only (query
// authorizers unknown to the compiled set).
func (v *valuation) pidFor(canonical string) int {
	if pid, ok := v.d.pidOf[canonical]; ok {
		return pid
	}
	if v.extraOf == nil {
		v.extraOf = make(map[string]int, 2)
	}
	if pid, ok := v.extraOf[canonical]; ok {
		return pid
	}
	pid := len(v.d.principals) + len(v.extraNames)
	v.extraOf[canonical] = pid
	v.extraNames = append(v.extraNames, canonical)
	v.val = append(v.val, 0)
	v.written = append(v.written, false)
	v.grantedBy = append(v.grantedBy, -1)
	return pid
}

func (v *valuation) name(pid int) string {
	if pid < len(v.d.principals) {
		return v.d.principals[pid]
	}
	return v.extraNames[pid-len(v.d.principals)]
}

func (v *valuation) canon(p string) string {
	if p == keynote.PolicyPrincipal || v.d.resolver == nil {
		return p
	}
	if id, err := v.d.resolver.Resolve(p); err == nil {
		return id
	}
	return p
}

// evalProg mirrors keynote's evalProgram over compiled clauses: max
// over satisfied clauses, evaluation errors skip a clause, early exit
// at _MAX_TRUST.
func (v *valuation) evalProg(p *cProg, maxIdx int) int {
	switch p.static {
	case progMax:
		return maxIdx
	case progZero:
		return 0
	}
	best := 0
	for i := range p.clauses {
		cl := &p.clauses[i]
		if cl.test != nil {
			tv, ok := v.exec(cl.test)
			if !ok || tv.Kind != keynote.ValBool || !tv.Bool {
				continue
			}
		}
		idx := maxIdx
		switch {
		case cl.sub != nil:
			idx = v.evalProg(cl.sub, maxIdx)
		case cl.value != "":
			j := valueIndex(v.values, cl.value)
			if j < 0 {
				continue // unknown compliance value: clause contributes nothing
			}
			idx = j
		}
		if idx > best {
			best = idx
		}
		if best == maxIdx {
			return best
		}
	}
	return best
}

func valueIndex(values []string, v string) int {
	for i, x := range values {
		if x == v {
			return i
		}
	}
	return -1
}

// Check computes the query's compliance value against the compiled set.
// It is observationally identical to CheckPreverified on the assertions
// the DAG was compiled from; Rejected is always nil (admission happened
// before compilation).
func (d *DAG) Check(q keynote.Query) (keynote.Result, error) {
	v := d.pool.Get().(*valuation)
	defer d.pool.Put(v)
	return d.check(v, q)
}

// CheckBatch evaluates a batch of queries on one reusable valuation,
// amortising pool round-trips and scratch-array reuse across the batch.
// It fails fast on the first malformed query.
func (d *DAG) CheckBatch(qs []keynote.Query) ([]keynote.Result, error) {
	v := d.pool.Get().(*valuation)
	defer d.pool.Put(v)
	out := make([]keynote.Result, len(qs))
	for i := range qs {
		r, err := d.check(v, qs[i])
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func (d *DAG) check(v *valuation, q keynote.Query) (keynote.Result, error) {
	if len(q.Authorizers) == 0 {
		return keynote.Result{}, errors.New("keynote: query has no action authorizers")
	}
	values := q.Values
	if values == nil {
		values = keynote.DefaultValues
	}
	if len(values) < 2 {
		return keynote.Result{}, errors.New("keynote: compliance-value ordering needs at least two values")
	}
	maxIdx := len(values) - 1

	v.reset(q, values)

	// Seed: action authorizers start at _MAX_TRUST.
	for _, p := range q.Authorizers {
		pid := v.pidFor(v.canon(p))
		v.val[pid] = maxIdx
		v.written[pid] = true
	}

	// Pre-evaluate conditions once per assertion (they depend only on
	// the action attribute set).
	condVal := v.condVal[:0]
	for i := range d.evalList {
		ca := &d.evalList[i]
		if ca.cond == nil {
			condVal = append(condVal, maxIdx)
			continue
		}
		condVal = append(condVal, v.evalProg(ca.cond, maxIdx))
	}
	v.condVal = condVal

	// Monotone delegation fixpoint over dense arrays; identical pass
	// structure to the interpreter, so Passes and grantedBy match.
	res := keynote.Result{PrincipalValues: make(map[string]string)}
	for pass := 0; ; pass++ {
		res.Passes = pass + 1
		changed := false
		for i := range d.evalList {
			ca := &d.evalList[i]
			cv := condVal[i]
			if cv == 0 {
				continue
			}
			contribution := v.execLic(ca.lic)
			if cv < contribution {
				contribution = cv
			}
			if contribution > v.val[ca.author] {
				v.val[ca.author] = contribution
				v.written[ca.author] = true
				v.grantedBy[ca.author] = i
				changed = true
			}
		}
		if !changed {
			break
		}
		if pass > d.nAdmitted*len(values)+1 {
			return keynote.Result{}, errors.New("keynote: compliance fixpoint failed to converge")
		}
	}

	for pid := range v.val {
		if v.written[pid] {
			res.PrincipalValues[v.name(pid)] = values[v.val[pid]]
		}
	}
	res.Index = v.val[0] // POLICY
	res.Value = values[res.Index]
	if res.Index > 0 {
		res.Chain = v.grantingChain()
	}
	return res, nil
}

// grantingChain mirrors the interpreter's chain walk: from POLICY,
// follow the assertion that last raised the current principal, stepping
// to its highest-valued licensee.
func (v *valuation) grantingChain() []string {
	chain := []string{keynote.PolicyPrincipal}
	cur := 0
	for len(chain) <= v.d.nAdmitted+1 { // cycle guard
		i := v.grantedBy[cur]
		if i < 0 {
			break
		}
		next, best := -1, -1
		for _, pid := range v.d.evalList[i].licPids {
			if !v.written[pid] {
				continue
			}
			if v.val[pid] > best {
				next, best = pid, v.val[pid]
			}
		}
		if next < 0 || next == cur {
			break
		}
		chain = append(chain, v.name(next))
		cur = next
	}
	return chain
}
