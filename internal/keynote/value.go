package keynote

import (
	"math"
	"regexp"
	"strconv"
	"strings"
)

// The value kernel: RFC 2704's condition-language value semantics,
// defined once. Three evaluators are mechanisms over it — the
// tree-walking interpreter (eval.go), and in internal/keynote/compile
// the bytecode VM and the abstract interpreter that folds constants.
// RFC 2704 distinguishes string, integer and float sub-grammars
// syntactically; this implementation types values dynamically with the
// same observable semantics:
//
//   - bare identifiers and $-indirection yield strings (undefined
//     attributes read as "");
//   - @x / &x dereference an attribute value as an integer / float, and
//     it is an evaluation error if the value does not parse;
//   - comparisons are numeric when both operands are numeric, string
//     (lexicographic) otherwise;
//   - evaluation errors (type mismatch, bad regex, division by zero,
//     unparsable numeric dereference) make the enclosing clause fail,
//     per the RFC's "signal failure" behaviour.
//
// Every operation returns (Value, ok), with ok=false for an evaluation
// error. None builds an error value, so the VM's failure path allocates
// nothing; the interpreter wraps !ok in errType.

// ValueKind is the dynamic type of a Value.
type ValueKind uint8

// The value kinds.
const (
	ValStr ValueKind = iota
	ValNum
	ValBool
)

// Value is one dynamically typed condition value. Which fields are
// meaningful depends on Kind: Str for ValStr, Num and IsInt for ValNum,
// Bool for ValBool. Values are comparable, so compiled constant pools
// can intern them.
type Value struct {
	Kind ValueKind
	Bool bool
	// IsInt records whether a numeric value is an integer, for / and %
	// semantics and rendering: integral and inside the int64 range.
	IsInt bool
	Num   float64
	Str   string
}

// StrVal returns a string value.
func StrVal(s string) Value { return Value{Kind: ValStr, Str: s} }

// BoolVal returns a boolean value.
func BoolVal(b bool) Value { return Value{Kind: ValBool, Bool: b} }

// numVal returns a numeric value, an integer when f has no fraction and
// int64 holds it, so int64(f) cannot overflow. [-2^63, 2^63) is that
// range: float64 cannot represent 2^63-1, and the next value up is 2^63.
func numVal(f float64) Value {
	isInt := f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63
	return Value{Kind: ValNum, Num: f, IsInt: isInt}
}

// intVal returns an integer value. Near ±2^63, float64(i) may round to
// 2^63, which is not an integer.
func intVal(i int64) Value { return numVal(float64(i)) }

// String renders v the way string contexts (comparison coercion, the
// '.' operator) see it.
func (v Value) String() string {
	if v.Kind == ValStr {
		return v.Str // the common case, kept inlinable
	}
	return v.render()
}

func (v Value) render() string {
	switch {
	case v.Kind == ValBool:
		return strconv.FormatBool(v.Bool)
	case v.IsInt:
		return strconv.FormatInt(int64(v.Num), 10)
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

// NumLit parses a numeric literal: integer unless the text contains
// '.', falling back to float. ok is false when the literal is out of
// float64 range.
func NumLit(text string) (Value, bool) {
	if !strings.Contains(text, ".") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return intVal(i), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Value{}, false
	}
	return numVal(f), true
}

// Deref applies @ (float=false) or & (float=true) to an evaluated
// operand: a string parses as an integer / float, a number passes
// through (@3, &(1+2)), a boolean is an error.
func Deref(v Value, float bool) (Value, bool) {
	switch v.Kind {
	case ValNum:
		return v, true
	case ValBool:
		return Value{}, false
	}
	s := strings.TrimSpace(v.Str)
	if float {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, false
		}
		return numVal(f), true
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Value{}, false
	}
	return intVal(i), true
}

// Not implements '!' on a boolean operand.
func Not(v Value) (Value, bool) {
	if v.Kind != ValBool {
		return Value{}, false
	}
	return BoolVal(!v.Bool), true
}

// Neg implements unary '-' on a numeric operand. Integrality follows
// from the result, since -(-2^63) leaves the int64 range.
func Neg(v Value) (Value, bool) {
	if v.Kind != ValNum {
		return Value{}, false
	}
	return numVal(-v.Num), true
}

// Binary applies one of the strict binary operators: the six
// comparisons, + - * / % ^ and '.'. The short-circuit connectives and
// ~= (which needs a RegexCache) are not strict in this sense; for them
// ok is false.
func Binary(op ExprOp, l, r Value) (Value, bool) {
	switch op {
	case OpEq, OpNe, OpLt, OpGt, OpLe, OpGe:
		var cmp int
		switch {
		case l.Kind == ValNum && r.Kind == ValNum:
			switch {
			case l.Num < r.Num:
				cmp = -1
			case l.Num > r.Num:
				cmp = 1
			}
		case l.Kind == ValBool || r.Kind == ValBool:
			return Value{}, false
		default:
			// String comparison; numeric operands coerce to their
			// string rendering (so @level == "3" behaves predictably).
			cmp = strings.Compare(l.String(), r.String())
		}
		switch op {
		case OpEq:
			return BoolVal(cmp == 0), true
		case OpNe:
			return BoolVal(cmp != 0), true
		case OpLt:
			return BoolVal(cmp < 0), true
		case OpGt:
			return BoolVal(cmp > 0), true
		case OpLe:
			return BoolVal(cmp <= 0), true
		default: // OpGe
			return BoolVal(cmp >= 0), true
		}

	case OpConcat:
		if l.Kind == ValBool || r.Kind == ValBool {
			return Value{}, false
		}
		return StrVal(l.String() + r.String()), true

	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow:
		// Integer operands divide as integers; % needs integers; / and
		// % by zero fail; any result is an integer when numVal says so.
		if l.Kind != ValNum || r.Kind != ValNum {
			return Value{}, false
		}
		bothInt := l.IsInt && r.IsInt
		var f float64
		switch op {
		case OpAdd:
			f = l.Num + r.Num
		case OpSub:
			f = l.Num - r.Num
		case OpMul:
			f = l.Num * r.Num
		case OpDiv:
			if r.Num == 0 {
				return Value{}, false
			}
			// -2^63 / -1 overflows int64; dividing by -1 is exact in
			// float64.
			if bothInt && r.Num != -1 {
				return intVal(int64(l.Num) / int64(r.Num)), true
			}
			f = l.Num / r.Num
		case OpMod:
			if !bothInt || int64(r.Num) == 0 {
				return Value{}, false
			}
			return intVal(int64(l.Num) % int64(r.Num)), true
		default: // OpPow
			f = math.Pow(l.Num, r.Num)
		}
		return numVal(f), true
	}
	return Value{}, false
}

// regexCacheCap bounds a RegexCache: pathological attribute values
// cannot grow it without limit.
const regexCacheCap = 64

// RegexCache compiles dynamic ~= patterns once per evaluation context,
// remembering patterns that do not compile too. Once it holds
// regexCacheCap patterns it starts over. The zero value is ready to
// use; a RegexCache is not safe for concurrent use.
type RegexCache struct {
	m map[string]*regexp.Regexp // nil entry = pattern does not compile
}

// Match implements ~=: both operands must be strings, and the right one
// must compile as a regular expression.
func (c *RegexCache) Match(l, r Value) (Value, bool) {
	if l.Kind != ValStr || r.Kind != ValStr {
		return Value{}, false
	}
	re, ok := c.m[r.Str]
	if !ok {
		if c.m == nil || len(c.m) >= regexCacheCap {
			c.m = make(map[string]*regexp.Regexp, 8)
		}
		re, _ = regexp.Compile(r.Str)
		c.m[r.Str] = re
	}
	if re == nil {
		return Value{}, false
	}
	return BoolVal(re.MatchString(l.Str)), true
}
