package compile

import (
	"fmt"
	"regexp"
	"strings"

	"securewebcom/internal/keynote"
)

// Abstract interpretation of condition expressions. The abstract domain
// per expression is: (optional) static type, (optional) exact constant
// value, and a may/must error pair. Evaluation is deterministic given
// the action attribute set, so every transfer function below is simply
// the concrete semantics lifted over "unknown": when both operands are
// known the concrete operation folds; when a static type contradicts an
// operator's requirement the expression must error (and the enclosing
// clause can never contribute, mirroring RFC 2704 failure semantics).

type aval struct {
	typKnown bool
	typ      keynote.ValueKind
	known    bool // exact value known and evaluation cannot fail
	v        keynote.Value
	mayErr   bool
	mustErr  bool // evaluation always fails (implies mayErr)
}

func aKnown(v keynote.Value) aval { return aval{typKnown: true, typ: v.Kind, known: true, v: v} }

// aKernel lifts a kernel result over constant operands: a value, or a
// subtree that must fail.
func aKernel(v keynote.Value, ok bool) aval {
	if !ok {
		return aMustErr()
	}
	return aKnown(v)
}

func aTyp(k keynote.ValueKind, mayErr bool) aval {
	return aval{typKnown: true, typ: k, mayErr: mayErr}
}
func aMustErr() aval { return aval{mayErr: true, mustErr: true} }

// isKind and notKind report a statically known type that is, or is
// not, k.
func (a aval) isKind(k keynote.ValueKind) bool  { return a.typKnown && a.typ == k }
func (a aval) notKind(k keynote.ValueKind) bool { return a.typKnown && a.typ != k }

// strictTypeError is the fact detail for a strict binary operator
// applied to an operand type it rejects.
func strictTypeError(op keynote.ExprOp) string {
	switch {
	case op.IsComparison():
		return fmt.Sprintf("cannot compare booleans with %s", op)
	case op == keynote.OpConcat:
		return ". requires string operands"
	}
	return fmt.Sprintf("%s requires numeric operands", op)
}

// FactKind classifies one static-analysis finding.
type FactKind int

// The fact kinds, each backing one policylint rule.
const (
	// FactAlwaysTrue: a clause test is statically true (PL011).
	FactAlwaysTrue FactKind = iota
	// FactAlwaysFalse: a clause test is statically false or never
	// boolean, so the clause can never contribute (PL011).
	FactAlwaysFalse
	// FactTypeError: a subexpression is type-confused and always fails
	// evaluation when reached (PL012).
	FactTypeError
	// FactDeadAssertion: the assertion's authorizer is unreachable from
	// POLICY once statically-void assertions are removed from the
	// delegation graph (PL013).
	FactDeadAssertion
	// FactIntervalContradiction: a conjunct constrains a numeric
	// dereference to an empty interval (PL014).
	FactIntervalContradiction
)

func (k FactKind) String() string {
	switch k {
	case FactAlwaysTrue:
		return "always-true"
	case FactAlwaysFalse:
		return "always-false"
	case FactTypeError:
		return "type-error"
	case FactDeadAssertion:
		return "dead-assertion"
	case FactIntervalContradiction:
		return "interval-contradiction"
	}
	return fmt.Sprintf("fact(%d)", int(k))
}

// Fact is one static-analysis finding with atom→source-span provenance:
// the assertion index in the analysed set, the top-level clause ordinal,
// the byte offset of the innermost clause in the Conditions source, and
// the canonical rendering of the offending expression.
type Fact struct {
	Kind      FactKind
	Assertion int
	Clause    int    // top-level clause ordinal, -1 when not clause-scoped
	Pos       int    // byte offset in the assertion's Conditions field
	Expr      string // canonical rendering of the offending expression
	Detail    string
}

func (f Fact) String() string {
	loc := fmt.Sprintf("assertion %d", f.Assertion)
	if f.Clause >= 0 {
		loc += fmt.Sprintf(" clause %d (offset %d)", f.Clause, f.Pos)
	}
	return fmt.Sprintf("%s: %s: %s [%s]", loc, f.Kind, f.Detail, f.Expr)
}

func (c *compiler) fact(kind FactKind, e keynote.Expr, detail string) {
	rendered := ""
	if e != nil {
		rendered = e.String()
	}
	c.facts = append(c.facts, Fact{
		Kind:      kind,
		Assertion: c.aIdx,
		Clause:    c.clauseIdx,
		Pos:       c.clausePos,
		Expr:      rendered,
		Detail:    detail,
	})
}

// emit compiles one expression to bytecode while abstract-interpreting
// it. Constant subexpressions fold to a single opConst; subexpressions
// that must fail fold to nothing (callers drop the clause).
func (c *compiler) emit(e keynote.Expr) aval {
	n := keynote.Decompose(e)
	mark := len(c.code)
	var res aval

	switch n.Kind {
	case keynote.KindBool:
		res = aKnown(keynote.BoolVal(n.Bool))

	case keynote.KindStr:
		res = aKnown(keynote.StrVal(n.Str))

	case keynote.KindNum:
		res = aKernel(keynote.NumLit(n.NumText)) // fails outside numeric range

	case keynote.KindAttr:
		if n.L == nil {
			c.code = append(c.code, instr{op: opAttr, a: int32(c.slot(n.Attr))})
			res = aTyp(keynote.ValStr, false)
			break
		}
		sub := c.emit(n.L)
		switch {
		case sub.mustErr:
			res = aMustErr()
		case sub.notKind(keynote.ValStr):
			c.fact(FactTypeError, e, "$ requires a string operand")
			res = aMustErr()
		case sub.known:
			// $"name" reads a statically known attribute: same as a
			// direct reference.
			c.code = c.code[:mark]
			c.code = append(c.code, instr{op: opAttr, a: int32(c.slot(sub.v.Str))})
			res = aTyp(keynote.ValStr, false)
		default:
			c.code = append(c.code, instr{op: opAttrDyn})
			res = aTyp(keynote.ValStr, sub.mayErr || !sub.typKnown)
		}

	case keynote.KindDeref:
		sub := c.emit(n.L)
		switch {
		case sub.mustErr:
			res = aMustErr()
		case sub.known:
			if res = aKernel(keynote.Deref(sub.v, n.Float)); res.mustErr {
				c.fact(FactTypeError, e, "numeric dereference always fails")
			}
		case sub.isKind(keynote.ValNum):
			res = sub // already numeric: dereference is the identity
		case sub.isKind(keynote.ValBool):
			c.fact(FactTypeError, e, "numeric dereference of boolean")
			res = aMustErr()
		default:
			in := instr{op: opDeref}
			if n.Float {
				in.a = 1
			}
			c.code = append(c.code, in)
			res = aTyp(keynote.ValNum, true) // the attribute value may not parse
		}

	case keynote.KindNot:
		sub := c.emit(n.L)
		switch {
		case sub.mustErr:
			res = aMustErr()
		case sub.notKind(keynote.ValBool):
			c.fact(FactTypeError, e, "! requires a boolean operand")
			res = aMustErr()
		case sub.known:
			res = aKernel(keynote.Not(sub.v))
		default:
			c.code = append(c.code, instr{op: opNot})
			res = aTyp(keynote.ValBool, sub.mayErr || !sub.typKnown)
		}

	case keynote.KindNeg:
		sub := c.emit(n.L)
		switch {
		case sub.mustErr:
			res = aMustErr()
		case sub.notKind(keynote.ValNum):
			c.fact(FactTypeError, e, "unary - requires a numeric operand")
			res = aMustErr()
		case sub.known:
			res = aKernel(keynote.Neg(sub.v))
		default:
			c.code = append(c.code, instr{op: opNeg})
			res = aTyp(keynote.ValNum, sub.mayErr || !sub.typKnown)
		}

	case keynote.KindBinary:
		res = c.emitBinary(e, n, mark)
	}

	switch {
	case res.known:
		c.code = c.code[:mark]
		c.code = append(c.code, instr{op: opConst, a: int32(c.constant(res.v))})
	case res.mustErr:
		// The subtree can only error; drop its code. Clause compilation
		// discards always-erroring tests entirely, and when the subtree
		// sits under a short-circuit operator the enclosing transfer
		// function has already accounted for the error path.
		c.code = c.code[:mark]
	}
	return res
}

func (c *compiler) emitBinary(e keynote.Expr, n keynote.ExprNode, mark int) aval {
	op := n.Op

	// Short-circuit boolean connectives.
	if op == keynote.OpAnd || op == keynote.OpOr {
		l := c.emit(n.L)
		jmpOp := opJumpFalse
		if op == keynote.OpOr {
			jmpOp = opJumpTrue
		}
		jmpAt := len(c.code)
		c.code = append(c.code, instr{op: jmpOp})
		r := c.emit(n.R)
		c.code = append(c.code, instr{op: opToBool})
		c.code[jmpAt].a = int32(len(c.code))

		rConfused := !r.mustErr && r.notKind(keynote.ValBool)
		if rConfused {
			c.fact(FactTypeError, e, fmt.Sprintf("%s requires boolean operands", op))
		}
		rErr := r.mustErr || rConfused
		switch {
		case l.mustErr:
			return aMustErr()
		case l.notKind(keynote.ValBool):
			c.fact(FactTypeError, e, fmt.Sprintf("%s requires boolean operands", op))
			return aMustErr()
		case l.known && l.v.Bool == (op == keynote.OpOr):
			return l // the left operand decides
		case l.known: // left passes through; the result is the right operand
			switch {
			case rErr:
				return aMustErr()
			case r.known:
				return r
			default:
				return aTyp(keynote.ValBool, r.mayErr || !r.typKnown)
			}
		default:
			return aTyp(keynote.ValBool, l.mayErr || !l.typKnown || r.mayErr || !r.typKnown || rErr)
		}
	}

	l := c.emit(n.L)
	rmark := len(c.code)
	r := c.emit(n.R)
	if l.mustErr || r.mustErr {
		return aMustErr()
	}

	if op == keynote.OpMatch {
		switch {
		case l.notKind(keynote.ValStr) || r.notKind(keynote.ValStr):
			c.fact(FactTypeError, e, "~= requires string operands")
			return aMustErr()
		case r.known:
			re, err := regexp.Compile(r.v.Str)
			if err != nil {
				c.fact(FactTypeError, e, fmt.Sprintf("constant regex does not compile: %v", err))
				// Whatever the subject evaluates to, the match errors
				// (after the operand type checks, which a non-string
				// subject fails anyway).
				return aMustErr()
			}
			if l.known {
				return aKnown(keynote.BoolVal(re.MatchString(l.v.Str)))
			}
			c.code = c.code[:rmark] // the constant pattern is not evaluated
			c.code = append(c.code, instr{op: opMatchConst, a: int32(c.regex(re))})
			return aTyp(keynote.ValBool, l.mayErr || !l.typKnown)
		default:
			c.code = append(c.code, instr{op: opMatch})
			return aTyp(keynote.ValBool, true) // a dynamic pattern may fail to compile
		}
	}

	// The strict operators: comparisons, '.', and arithmetic. A static
	// operand type the operator rejects makes the node always fail;
	// constant operands fold through the kernel.
	var typ keynote.ValueKind
	var confused bool
	switch {
	case op.IsComparison():
		typ, confused = keynote.ValBool, l.isKind(keynote.ValBool) || r.isKind(keynote.ValBool)
	case op == keynote.OpConcat:
		typ, confused = keynote.ValStr, l.isKind(keynote.ValBool) || r.isKind(keynote.ValBool)
	default:
		typ, confused = keynote.ValNum, l.notKind(keynote.ValNum) || r.notKind(keynote.ValNum)
	}
	mayErr := l.mayErr || r.mayErr || !l.typKnown || !r.typKnown
	switch {
	case confused:
		c.fact(FactTypeError, e, strictTypeError(op))
		return aMustErr()
	case l.known && r.known:
		// Only arithmetic can fail on operands of accepted types.
		res := aKernel(keynote.Binary(op, l.v, r.v))
		if res.mustErr {
			c.fact(FactTypeError, e, "arithmetic always fails (division or modulo by zero, or non-integer modulo)")
		}
		return res
	case (op == keynote.OpDiv || op == keynote.OpMod) && r.known && r.v.Num == 0:
		c.fact(FactTypeError, e, "division or modulo by constant zero")
		return aMustErr()
	case op == keynote.OpDiv && !r.known, op == keynote.OpMod:
		// A divisor may be zero; % also needs integer operands.
		mayErr = true
	}
	c.code = append(c.code, instr{op: opBinary, a: int32(op)})
	return aTyp(typ, mayErr)
}

// ---- Interval analysis ----
//
// Within a clause test's &&/|| skeleton, atoms of the form
// "@attr <cmp> literal" (or the & float form, or flipped) constrain the
// dereferenced value on the real line. If every constraint set of the
// disjunctive expansion pins some attribute to an empty interval, the
// test can never be satisfied: each atom either fails its numeric
// dereference (an evaluation error — the clause contributes nothing) or
// yields a number violating one of the contradictory bounds. Either way
// the clause is statically void, so pruning it is sound. Both the
// interpreter and the VM compare numerics as float64, so float64
// interval arithmetic here is exact, not approximate.

type numAtom struct {
	key string // "@name" or "&name"
	op  keynote.ExprOp
	val float64
	src keynote.Expr
}

type ivl struct {
	lo, hi         float64
	loOpen, hiOpen bool
	hasLo, hasHi   bool
}

func (iv *ivl) apply(op keynote.ExprOp, c float64) {
	switch op {
	case keynote.OpEq:
		iv.tightenLo(c, false)
		iv.tightenHi(c, false)
	case keynote.OpLt:
		iv.tightenHi(c, true)
	case keynote.OpLe:
		iv.tightenHi(c, false)
	case keynote.OpGt:
		iv.tightenLo(c, true)
	case keynote.OpGe:
		iv.tightenLo(c, false)
	}
}

func (iv *ivl) tightenLo(c float64, open bool) {
	if !iv.hasLo || c > iv.lo || (c == iv.lo && open && !iv.loOpen) {
		iv.lo, iv.loOpen, iv.hasLo = c, open, true
	}
}

func (iv *ivl) tightenHi(c float64, open bool) {
	if !iv.hasHi || c < iv.hi || (c == iv.hi && open && !iv.hiOpen) {
		iv.hi, iv.hiOpen, iv.hasHi = c, open, true
	}
}

func (iv ivl) empty() bool {
	if !iv.hasLo || !iv.hasHi {
		return false
	}
	return iv.lo > iv.hi || (iv.lo == iv.hi && (iv.loOpen || iv.hiOpen))
}

// maxDisjuncts caps the disjunctive expansion; beyond it the analysis
// gives up (soundly: no pruning, no facts).
const maxDisjuncts = 32

// intervalUnsat reports whether e can never evaluate to true, judged by
// interval reasoning alone, and records one PL014 fact per
// contradictory conjunct.
func (c *compiler) intervalUnsat(e keynote.Expr) bool {
	disj, ok := c.disjuncts(e)
	if !ok || len(disj) == 0 {
		return false
	}
	allUnsat := true
	for _, conj := range disj {
		if c.conjUnsat(conj) == "" {
			allUnsat = false
		}
	}
	return allUnsat
}

// conjUnsat intersects a conjunct's interval constraints per attribute;
// on contradiction it records a fact and returns the offending key.
func (c *compiler) conjUnsat(conj []numAtom) string {
	if len(conj) < 2 {
		return ""
	}
	ivls := make(map[string]*ivl, 2)
	for _, a := range conj {
		iv := ivls[a.key]
		if iv == nil {
			iv = &ivl{}
			ivls[a.key] = iv
		}
		iv.apply(a.op, a.val)
		if iv.empty() {
			var parts []string
			for _, b := range conj {
				if b.key == a.key {
					parts = append(parts, b.src.String())
				}
			}
			c.fact(FactIntervalContradiction, a.src,
				fmt.Sprintf("interval contradiction on %s: %s can never hold",
					a.key, strings.Join(parts, " && ")))
			return a.key
		}
	}
	return ""
}

// disjuncts expands the &&/|| skeleton of e into constraint sets.
// Non-atom subtrees become opaque ⊤ elements (they never contribute a
// contradiction). ok=false means the expansion exceeded maxDisjuncts.
func (c *compiler) disjuncts(e keynote.Expr) ([][]numAtom, bool) {
	n := keynote.Decompose(e)
	if n.Kind == keynote.KindBinary {
		switch n.Op {
		case keynote.OpOr:
			l, ok := c.disjuncts(n.L)
			if !ok {
				return nil, false
			}
			r, ok := c.disjuncts(n.R)
			if !ok {
				return nil, false
			}
			if len(l)+len(r) > maxDisjuncts {
				return nil, false
			}
			return append(l, r...), true
		case keynote.OpAnd:
			l, ok := c.disjuncts(n.L)
			if !ok {
				return nil, false
			}
			r, ok := c.disjuncts(n.R)
			if !ok {
				return nil, false
			}
			if len(l)*len(r) > maxDisjuncts {
				return nil, false
			}
			out := make([][]numAtom, 0, len(l)*len(r))
			for _, a := range l {
				for _, b := range r {
					merged := make([]numAtom, 0, len(a)+len(b))
					merged = append(append(merged, a...), b...)
					out = append(out, merged)
				}
			}
			return out, true
		}
	}
	if a, ok := numAtomOf(e); ok {
		return [][]numAtom{{a}}, true
	}
	return [][]numAtom{{}}, true // opaque
}

// numAtomOf recognises "@attr <cmp> literal" atoms in either operand
// order. != does not constrain an interval and is treated as opaque.
func numAtomOf(e keynote.Expr) (numAtom, bool) {
	n := keynote.Decompose(e)
	if n.Kind != keynote.KindBinary || !n.Op.IsComparison() || n.Op == keynote.OpNe {
		return numAtom{}, false
	}
	if key, ok := derefKey(n.L); ok {
		if v, ok := constNum(n.R); ok {
			return numAtom{key: key, op: n.Op, val: v, src: e}, true
		}
	}
	if key, ok := derefKey(n.R); ok {
		if v, ok := constNum(n.L); ok {
			return numAtom{key: key, op: flipCmp(n.Op), val: v, src: e}, true
		}
	}
	return numAtom{}, false
}

func derefKey(e keynote.Expr) (string, bool) {
	n := keynote.Decompose(e)
	if n.Kind != keynote.KindDeref {
		return "", false
	}
	sub := keynote.Decompose(n.L)
	if sub.Kind != keynote.KindAttr || sub.L != nil {
		return "", false
	}
	if n.Float {
		return "&" + sub.Attr, true
	}
	return "@" + sub.Attr, true
}

func constNum(e keynote.Expr) (float64, bool) {
	n := keynote.Decompose(e)
	switch n.Kind {
	case keynote.KindNum:
		if v, ok := keynote.NumLit(n.NumText); ok {
			return v.Num, true
		}
	case keynote.KindNeg:
		sub := keynote.Decompose(n.L)
		if sub.Kind == keynote.KindNum {
			if v, ok := keynote.NumLit(sub.NumText); ok {
				return -v.Num, true
			}
		}
	}
	return 0, false
}

func flipCmp(op keynote.ExprOp) keynote.ExprOp {
	switch op {
	case keynote.OpLt:
		return keynote.OpGt
	case keynote.OpGt:
		return keynote.OpLt
	case keynote.OpLe:
		return keynote.OpGe
	case keynote.OpGe:
		return keynote.OpLe
	}
	return op // == stays ==
}
