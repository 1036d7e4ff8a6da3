package keynote

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// The tree-walking interpreter: the reference evaluator over the value
// kernel (value.go). Kernel failures surface as errType; clause
// evaluation drops the error text, so only err != nil is observable.

var errType = errors.New("keynote: type error in condition expression")

// env is the evaluation environment for one query: the action attribute
// set, the ordered compliance-value set (weakest first) and the action
// authorizers, from which Lookup derives the special attributes.
type env struct {
	attrs       map[string]string
	values      []string
	authorizers []string
	// regexes avoids recompiling patterns across assertions.
	regexes RegexCache
}

func newEnv(attrs map[string]string, values []string, authorizers []string) *env {
	return &env{attrs: attrs, values: values, authorizers: authorizers}
}

func (e *env) lookup(name string) string {
	return Lookup(name, e.attrs, e.values, e.authorizers)
}

// Lookup resolves an attribute name for a query with action attribute
// set attrs, ordered compliance values (weakest first) and action
// authorizers. RFC 2704's derived specials take precedence over attrs:
// _MIN_TRUST and _MAX_TRUST are the weakest and strongest value,
// _VALUES all of them and _ACTION_AUTHORIZERS the authorizers, each
// comma-separated. Both evaluators resolve names here.
func Lookup(name string, attrs map[string]string, values, authorizers []string) string {
	switch name {
	case "_MIN_TRUST":
		return values[0]
	case "_MAX_TRUST":
		return values[len(values)-1]
	case "_VALUES":
		return strings.Join(values, ",")
	case "_ACTION_AUTHORIZERS":
		return strings.Join(authorizers, ",")
	}
	return attrs[name]
}

// valueIndex maps a compliance value to its index in the ordering, or an
// error for unknown values.
func (e *env) valueIndex(v string) (int, error) {
	for i, x := range e.values {
		if x == v {
			return i, nil
		}
	}
	return 0, fmt.Errorf("keynote: compliance value %q not in ordering %v", v, e.values)
}

// ---- Expression evaluation ----

// kernel adapts a kernel result to the interpreter's error convention.
func kernel(v Value, ok bool) (Value, error) {
	if !ok {
		return Value{}, errType
	}
	return v, nil
}

func (x *boolLit) eval(*env) (Value, error) { return BoolVal(x.v), nil }
func (x *strLit) eval(*env) (Value, error)  { return StrVal(x.v), nil }
func (x *numLit) eval(*env) (Value, error)  { return kernel(x.v, x.ok) }

func (x *attrRef) eval(e *env) (Value, error) {
	name := x.name
	if x.indirect != nil {
		v, err := x.indirect.eval(e)
		if err != nil {
			return Value{}, err
		}
		if v.Kind != ValStr {
			return Value{}, errType // $ requires a string operand
		}
		name = v.Str
	}
	return StrVal(e.lookup(name)), nil
}

func (x *numDeref) eval(e *env) (Value, error) {
	v, err := x.x.eval(e)
	if err != nil {
		return Value{}, err
	}
	return kernel(Deref(v, x.float))
}

func (x *notExpr) eval(e *env) (Value, error) {
	v, err := x.x.eval(e)
	if err != nil {
		return Value{}, err
	}
	return kernel(Not(v))
}

func (x *negExpr) eval(e *env) (Value, error) {
	v, err := x.x.eval(e)
	if err != nil {
		return Value{}, err
	}
	return kernel(Neg(v))
}

func (x *binOp) eval(e *env) (Value, error) {
	l, err := x.l.eval(e)
	if err != nil {
		return Value{}, err
	}
	if x.op == OpAnd || x.op == OpOr {
		// Short-circuit: a false left operand decides &&, a true one ||.
		if l.Kind != ValBool {
			return Value{}, errType
		}
		if l.Bool == (x.op == OpOr) {
			return l, nil
		}
		r, err := x.r.eval(e)
		if err != nil {
			return Value{}, err
		}
		if r.Kind != ValBool {
			return Value{}, errType
		}
		return r, nil
	}
	r, err := x.r.eval(e)
	if err != nil {
		return Value{}, err
	}
	if x.op == OpMatch {
		return kernel(e.regexes.Match(l, r))
	}
	return kernel(Binary(x.op, l, r))
}

// evalProgram computes the compliance-value index yielded by a conditions
// program. An empty/nil program yields _MAX_TRUST (an assertion with no
// Conditions field imposes no restriction). Clause evaluation errors make
// that clause contribute nothing, per RFC 2704's failure semantics.
func evalProgram(p *Program, e *env) int {
	maxIdx := len(e.values) - 1
	if p == nil || len(p.Clauses) == 0 {
		return maxIdx
	}
	best := 0 // _MIN_TRUST
	for _, cl := range p.Clauses {
		v, err := cl.Test.eval(e)
		if err != nil || v.Kind != ValBool || !v.Bool {
			continue
		}
		var idx int
		switch {
		case cl.Sub != nil:
			idx = evalProgram(cl.Sub, e)
		case cl.Value != "":
			i, err := e.valueIndex(cl.Value)
			if err != nil {
				continue // unknown compliance value: clause contributes nothing
			}
			idx = i
		default:
			idx = maxIdx
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

// ---- Licensees evaluation ----

func (l *LicPrincipal) evalLic(val func(string) int) int { return val(l.Name) }

func (l *LicAnd) evalLic(val func(string) int) int {
	a, b := l.L.evalLic(val), l.R.evalLic(val)
	if a < b {
		return a
	}
	return b
}

func (l *LicOr) evalLic(val func(string) int) int {
	a, b := l.L.evalLic(val), l.R.evalLic(val)
	if a > b {
		return a
	}
	return b
}

func (l *LicThreshold) evalLic(val func(string) int) int {
	vals := make([]int, len(l.Subs))
	for i, s := range l.Subs {
		vals[i] = s.evalLic(val)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vals)))
	return vals[l.K-1] // K-th largest
}
