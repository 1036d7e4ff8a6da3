package compile

import "securewebcom/internal/keynote"

// Condition tests compile to a postfix stack machine over the value
// kernel (keynote.Value and its operations). One instruction is an
// opcode plus an int32 operand (constant-pool index, attribute slot,
// regex index, operator, or jump target). The machine has no error
// values: any evaluation error — type mismatch, unparsable dereference,
// bad regex, division by zero — aborts execution with ok=false, which
// makes the enclosing clause contribute nothing, exactly like the
// interpreter's "signal failure" behaviour.

type opcode uint8

const (
	opConst      opcode = iota // push consts[a]
	opAttr                     // push the string value of slot a
	opAttrDyn                  // pop name (must be string); push its attribute value
	opDeref                    // pop v; @-dereference (a=0) or &-dereference (a=1)
	opNot                      // pop bool; push negation
	opNeg                      // pop num; push arithmetic negation
	opJumpFalse                // pop bool; if false push false and jump to a (&&)
	opJumpTrue                 // pop bool; if true push true and jump to a (||)
	opToBool                   // pop; must be bool; push it back (right operand check)
	opMatch                    // pop pattern, subject; dynamic regex match
	opMatchConst               // pop subject; match against regexes[a] (nil = bad pattern)
	opBinary                   // pop r, l; push keynote.Binary(ExprOp(a), l, r)
)

type instr struct {
	op opcode
	a  int32
}

// exec runs one compiled test program and returns its value. ok=false
// signals an evaluation error (the clause fails).
func (v *valuation) exec(code []instr) (keynote.Value, bool) {
	d := v.d
	st := v.stack[:0]
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		var out keynote.Value
		ok := true
		switch in.op {
		case opConst:
			st = append(st, d.consts[in.a])
			continue
		case opAttr:
			st = append(st, keynote.StrVal(v.slots[in.a]))
			continue
		case opAttrDyn:
			name := st[len(st)-1]
			if name.Kind != keynote.ValStr {
				return keynote.Value{}, false
			}
			out = keynote.StrVal(v.lookup(name.Str))
		case opDeref:
			out, ok = keynote.Deref(st[len(st)-1], in.a != 0)
		case opNot:
			out, ok = keynote.Not(st[len(st)-1])
		case opNeg:
			out, ok = keynote.Neg(st[len(st)-1])
		case opJumpFalse, opJumpTrue:
			x := st[len(st)-1]
			if x.Kind != keynote.ValBool {
				return keynote.Value{}, false
			}
			if x.Bool == (in.op == opJumpTrue) {
				pc = int(in.a) - 1 // leave the deciding operand on the stack
			} else {
				st = st[:len(st)-1]
			}
			continue
		case opToBool:
			ok = st[len(st)-1].Kind == keynote.ValBool
			out = st[len(st)-1]
		case opMatchConst:
			l := st[len(st)-1]
			re := d.regexes[in.a]
			// A nil entry is a constant pattern that does not compile.
			ok = l.Kind == keynote.ValStr && re != nil
			out = keynote.BoolVal(ok && re.MatchString(l.Str))
		case opMatch:
			out, ok = v.regexes.Match(st[len(st)-2], st[len(st)-1])
			st = st[:len(st)-1]
		default: // opBinary
			out, ok = keynote.Binary(keynote.ExprOp(in.a), st[len(st)-2], st[len(st)-1])
			st = st[:len(st)-1]
		}
		if !ok {
			return keynote.Value{}, false
		}
		st[len(st)-1] = out
	}
	v.stack = st[:0]
	return st[0], true
}

// Licensee expressions compile to a postfix program over an int stack:
// push a principal's current valuation, combine with min (&&), max
// (||), or K-th largest (threshold).

type licOpcode uint8

const (
	licPush licOpcode = iota // push valuation of principal pid a
	licAnd                   // pop two, push min
	licOr                    // pop two, push max
	licKOf                   // pop n (in b), push K-th (a) largest
)

type licInstr struct {
	op licOpcode
	a  int32 // pid for licPush; K for licKOf
	b  int32 // arity for licKOf
}

// execLic evaluates a compiled licensee program against the current
// principal valuation.
func (v *valuation) execLic(code []licInstr) int {
	st := v.licStack[:0]
	for _, in := range code {
		switch in.op {
		case licPush:
			st = append(st, v.val[in.a])
		case licAnd:
			a, b := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-1]
			if b < a {
				st[len(st)-1] = b
			}
		case licOr:
			a, b := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-1]
			if b > a {
				st[len(st)-1] = b
			}
		default: // licKOf: K-th largest of the top b values
			n := int(in.b)
			args := st[len(st)-n:]
			// Insertion sort, descending; n is small (threshold arity).
			for i := 1; i < n; i++ {
				x := args[i]
				j := i - 1
				for j >= 0 && args[j] < x {
					args[j+1] = args[j]
					j--
				}
				args[j+1] = x
			}
			kth := args[int(in.a)-1]
			st = st[:len(st)-n]
			st = append(st, kth)
		}
	}
	v.licStack = st[:0]
	return st[0]
}
