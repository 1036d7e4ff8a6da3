package keynote

import (
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"
)

// FuzzKernelArithmetic checks the value kernel's + - * / %, unary minus
// and rendering against math/big, an oracle that shares no code with
// the kernel. The interpreter, the VM and the constant folder all call
// the kernel, so FuzzCompiledVsInterpreted cannot see a kernel bug;
// this target can.
//
// Operands are integer literals a·10^e, inside and far outside the
// int64 range. The kernel stores numbers as float64, so the oracle's
// value of a literal is the float64 nearest to it, taken exactly as a
// big.Int; it is an integer when it lies in [-2^63, 2^63). IEEE
// arithmetic is correctly rounded, so each result must be the float64
// nearest to the exact result the oracle computes.
func FuzzKernelArithmetic(f *testing.F) {
	f.Add(int64(99999), uint8(15), int64(3), uint8(0), uint8(3))         // 99999999999999999999 / 3
	f.Add(int64(math.MinInt64), uint8(0), int64(-1), uint8(0), uint8(3)) // -2^63 / -1
	f.Add(int64(math.MinInt64), uint8(0), int64(-1), uint8(0), uint8(4)) // -2^63 % -1
	f.Add(int64(math.MaxInt64), uint8(0), int64(1), uint8(0), uint8(0))  // 2^63-1 rounds to 2^63
	f.Add(int64(-7), uint8(200), int64(3), uint8(150), uint8(2))         // a product past float64
	f.Add(int64(7), uint8(0), int64(-2), uint8(0), uint8(4))
	f.Fuzz(func(t *testing.T, a int64, ae uint8, b int64, be uint8, op uint8) {
		la, lb := literal(a, ae), literal(b, be)
		l, x := operand(t, la)
		r, y := operand(t, lb)
		ops := []ExprOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		i := int(op) % len(ops)
		what := la + " " + "+-*/%"[i:i+1] + " " + lb
		got, ok := Binary(ops[i], l, r)
		want, wantOK := oracle(ops[i], x, y)
		if ok != wantOK {
			t.Fatalf("%s: ok = %v, want %v", what, ok, wantOK)
		}
		if ok {
			checkNum(t, what, got, want)
		}
	})
}

// literal returns the decimal text of a·10^e, which stays below
// float64's maximum (|a| < 10^19 and e < 256).
func literal(a int64, e uint8) string {
	v := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
	return v.Mul(v, big.NewInt(a)).String()
}

// operand parses lit with the kernel and returns the value, and the
// oracle's exact value of it. Its negation is checked on the way.
func operand(t *testing.T, lit string) (Value, *big.Int) {
	t.Helper()
	exact, _ := new(big.Int).SetString(lit, 10)
	x := nearest(new(big.Float).SetInt(exact))
	v, ok := NumLit(lit)
	if !ok {
		t.Fatalf("NumLit(%s) failed", lit)
	}
	checkNum(t, lit, v, toFloat(x))
	n, ok := Neg(v)
	if !ok {
		t.Fatalf("Neg(%s) failed", lit)
	}
	checkNum(t, "-("+lit+")", n, toFloat(new(big.Int).Neg(x)))
	return v, x
}

// nearest rounds f to the nearest float64 and returns it as an exact
// integer; f must be integral after rounding, which holds for every
// float64 of magnitude at least 2^52 and for every integer below it.
func nearest(f *big.Float) *big.Int {
	i, _ := new(big.Float).SetFloat64(toFloat(f)).Int(nil)
	return i
}

// toFloat rounds an exact integer or float to the nearest float64,
// infinite past float64's range.
func toFloat[X *big.Int | *big.Float](x X) float64 {
	var f float64
	switch x := any(x).(type) {
	case *big.Int:
		f, _ = new(big.Float).SetInt(x).Float64()
	case *big.Float:
		f, _ = x.Float64()
	}
	return f
}

var (
	minInt = big.NewInt(math.MinInt64)
	maxInt = big.NewInt(math.MaxInt64)
)

func inInt64(x *big.Int) bool { return x.Cmp(minInt) >= 0 && x.Cmp(maxInt) <= 0 }

// oracle computes x op y exactly and rounds it the way the kernel's
// semantics require. It returns the result as a float64 (possibly
// infinite) and whether the operation is defined.
func oracle(op ExprOp, x, y *big.Int) (float64, bool) {
	bothInt := inInt64(x) && inInt64(y)
	var exact *big.Int
	switch op {
	case OpAdd:
		exact = new(big.Int).Add(x, y)
	case OpSub:
		exact = new(big.Int).Sub(x, y)
	case OpMul:
		exact = new(big.Int).Mul(x, y)
	case OpDiv:
		if y.Sign() == 0 {
			return 0, false
		}
		if !bothInt {
			f, _ := new(big.Rat).SetFrac(x, y).Float64()
			return f, true
		}
		exact = new(big.Int).Quo(x, y) // truncates toward zero
	case OpMod:
		if !bothInt || y.Sign() == 0 {
			return 0, false
		}
		exact = new(big.Int).Rem(x, y) // takes the dividend's sign
	}
	return toFloat(exact), true
}

// checkNum checks a kernel numeric value against the oracle's value f:
// the number itself, whether it is an integer, and its rendering.
func checkNum(t *testing.T, what string, v Value, f float64) {
	t.Helper()
	if v.Kind != ValNum || v.Num != f {
		t.Fatalf("%s = %+v, want number %v", what, v, f)
	}
	integral := !math.IsInf(f, 0) && f == math.Trunc(f)
	var exact *big.Int
	if integral {
		exact, _ = new(big.Float).SetFloat64(f).Int(nil)
	}
	wantInt := integral && inInt64(exact)
	if v.IsInt != wantInt {
		t.Fatalf("%s = %v: IsInt = %v, want %v", what, f, v.IsInt, wantInt)
	}
	s := v.String()
	if strings.HasPrefix(s, "-") != (f < 0) {
		t.Fatalf("%s = %v renders as %q: wrong sign", what, f, s)
	}
	if wantInt {
		if s != exact.String() {
			t.Fatalf("%s renders as %q, want %s", what, s, exact)
		}
	} else if g, err := strconv.ParseFloat(s, 64); err != nil || g != f {
		t.Fatalf("%s = %v renders as %q, which reads back as %v (%v)", what, f, s, g, err)
	}
}
