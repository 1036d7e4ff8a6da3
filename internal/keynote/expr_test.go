package keynote

import (
	"strings"
	"testing"
	"testing/quick"
)

// evalTest evaluates a conditions test expression under attrs and returns
// (result, evalErr). Parse failures are fatal.
func evalTest(t *testing.T, src string, attrs map[string]string) (bool, error) {
	t.Helper()
	prog, err := ParseConditions(src, nil)
	if err != nil {
		t.Fatalf("ParseConditions(%q): %v", src, err)
	}
	if len(prog.Clauses) != 1 {
		t.Fatalf("want 1 clause, got %d", len(prog.Clauses))
	}
	e := newEnv(attrs, DefaultValues, []string{"K"})
	v, err := prog.Clauses[0].Test.eval(e)
	if err != nil {
		return false, err
	}
	if v.Kind != ValBool {
		t.Fatalf("expression %q is not boolean", src)
	}
	return v.Bool, nil
}

func TestExprBasics(t *testing.T) {
	attrs := map[string]string{
		"app_domain": "SalariesDB",
		"oper":       "write",
		"level":      "7",
		"pi":         "3.5",
		"name":       "finance.manager",
		"padded":     " 7 ",
	}
	cases := []struct {
		src  string
		want bool
	}{
		{`app_domain=="SalariesDB"`, true},
		{`app_domain == "SalariesDB" && (oper=="read" || oper=="write")`, true},
		{`app_domain=="OrdersDB"`, false},
		{`oper != "read"`, true},
		{`!(oper=="read")`, true},
		{`true`, true},
		{`false`, false},
		{`!false`, true},
		{`@level > 5`, true},
		{`@level >= 7`, true},
		{`@level < 7`, false},
		{`@level == 7`, true},
		{`@level + 1 == 8`, true},
		{`@level - 2 == 5`, true},
		{`@level * 2 == 14`, true},
		{`@level / 2 == 3`, true}, // integer division
		{`@level % 2 == 1`, true},
		{`2 ^ 3 == 8`, true},
		{`-@level == -7`, true},
		{`&pi > 3.4`, true},
		{`&pi <= 3.5`, true},
		{`&pi / 2 == 1.75`, true},
		{`name ~= "^finance\\."`, true},
		{`name ~= "^sales\\."`, false},
		{`oper ~= "read|write"`, true},
		{`"abc" < "abd"`, true},
		{`"b" > "a"`, true},
		{`app_domain . "/" . oper == "SalariesDB/write"`, true},
		{`undefined_attr == ""`, true},
		{`$("app" . "_domain") == "SalariesDB"`, true},
		{`1.5 + 1.5 == 3`, true},
		{`(1 < 2) && (2 < 3) || false`, true},
		{`@level > 5 && @level < 10`, true},

		// The value kernel, operator by operand kind. Renderings are
		// read back through '.', which shows integrality.
		{`7 / 2 . "" == "3"`, true},         // int / int truncates
		{`7.5 / 2 . "" == "3.75"`, true},    // a float operand divides exactly
		{`7.0 / 2 . "" == "3"`, true},       // an integral float literal is an integer
		{`&pi / 0.5 . "" == "7"`, true},     // an integral float result renders as an integer
		{`4.0 % 3 == 1`, true},              // an integral float literal is an integer for %
		{`(0 - 7) % 3 == -1`, true},         // % truncates toward zero
		{`2 ^ 10 . "" == "1024"`, true},     // ^ of integers stays integral
		{`2 ^ 3 % 5 == 3`, true},            // ... so % accepts it
		{`2 ^ 0.5 > 1.41`, true},            // a float exponent
		{`2 ^ (0 - 1) . "" == "0.5"`, true}, // a fractional result is a float
		{`-(2 ^ 2) / 3 == -1`, true},        // unary minus keeps integrality
		{`-&pi . "" == "-3.5"`, true},
		{`1.5 + 1.5 . "" == "3"`, true},
		{`@level == "7"`, true},  // number vs string compares renderings
		{`@level < "10"`, false}, // ... lexicographically
		{`@level < 10`, true},    // number vs number compares numerically
		{`"10" < "9"`, true},
		{`&pi == "3.5"`, true},
		{`1.0 == "1"`, true},
		{`&level == 7`, true},   // & of an integer string
		{`@padded == 7`, true},  // @ and & ignore surrounding space
		{`@(3 + 4) == 7`, true}, // @ of a number is the number
		{`&"2.5" * 2 == 5`, true},
		{`name . 1 == "finance.manager1"`, true},             // '.' renders numbers
		{`99999999999999999999 > 9223372036854775807`, true}, // int64 overflow falls back to float
		// An integer is integral and inside [-2^63, 2^63); past that a
		// value is a float, which renders and divides as one.
		{`99999999999999999999 . "" == "1e+20"`, true},
		{`99999999999999999999 / 3 . "" == "3.333333333333333e+19"`, true},
		{`99999999999999999999 / 3 > 0`, true},
		{`10 ^ 400 . "" == "+Inf"`, true},
		{`-9223372036854775808 . "" == "-9223372036854775808"`, true},            // -2^63 is an integer
		{`-9223372036854775808 / 2 . "" == "-4611686018427387904"`, true},        // ... and divides as one
		{`-9223372036854775808 % (0 - 1) == 0`, true},                            // ... with no int64 trap
		{`-9223372036854775808 / (0 - 1) . "" == "9.223372036854776e+18"`, true}, // 2^63 is not
		{`9223372036854775808 . "" == "9.223372036854776e+18"`, true},            // 2^63 is a float
		{`9223372036854775807 . "" == "9.223372036854776e+18"`, true},            // float64 rounds 2^63-1 up to 2^63
		{`-(0 - 9223372036854775807 - 1) . "" == "9.223372036854776e+18"`, true}, // negating -2^63 leaves the range
		{`true || 1`, true}, // short-circuit: the right operand is never typed
		{`!(false && 1)`, true},
	}
	for _, c := range cases {
		got, err := evalTest(t, c.src, attrs)
		if err != nil {
			t.Errorf("%q: unexpected error %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	attrs := map[string]string{"s": "hello", "n": "3", "pi": "3.5"}
	// These parse but fail at evaluation.
	for _, src := range []string{
		`@s == 3`,               // non-numeric dereference
		`&s > 1.0`,              // non-float dereference
		`@n / 0 == 1`,           // division by zero
		`@n % 0 == 1`,           // modulo by zero
		`1.5 % 2 == 0`,          // modulo of float
		`!s`,                    // not of string
		`s && true`,             // && of string
		`true . "x" == "truex"`, // concat of bool
		`s ~= "["`,              // bad regex
		`true < false`,          // boolean comparison
		`-s == 1`,               // negation of string
		`$(@n) == "x"`,          // $ of number
		`&n / 0.0 == 1`,         // float division by zero
		`1.5 / 0 == 1`,
		`@n % 0.0 == 1`,                         // modulo by an integral float zero
		`&pi % 2 == 1`,                          // modulo of a non-integral dereference
		`2 ^ 0.5 % 1 == 0`,                      // a non-integral power is not an integer
		`@pi == 3`,                              // @ of a float string
		"1" + strings.Repeat("0", 400) + " > 1", // literal beyond float64 range
		`99999999999999999999 % 7 == 1`,         // % needs integers; 1e20 is past int64
		`9223372036854775808 % 2 == 0`,          // ... and so is 2^63
		// A boolean operand fails every operator but the connectives.
		`true == true`, `false != true`, `true < 1`, `1 >= false`, `true <= "x"`, `"x" > false`,
		`true + 1 == 2`, `1 - false == 1`, `true * 2 == 2`, `1 / true == 1`, `true % 2 == 1`, `2 ^ false == 1`,
		`"x" . false == "xfalse"`, `true ~= "t"`, `"t" ~= false`, `@(1 < 2) == 1`, `&(1 < 2) == 1`,
		`-(1 < 2) == 1`, `$(1 < 2) == ""`,
		// ... and a non-boolean fails the connectives and '!'.
		`1 && true`, `true && "x"`, `false || 1`, `!1`,
		`1 ~= "1"`, // ~= needs strings, not renderings
	} {
		if _, err := evalTest(t, src, attrs); err == nil {
			t.Errorf("%q: expected evaluation error", src)
		}
	}
}

func TestExprParseErrors(t *testing.T) {
	for _, src := range []string{
		`a ==`,
		`(a == "x"`,
		`a == "x")`,
		`a == "x" extra == "y"`, // missing ';'
		`== "x"`,
		`a == "unterminated`,
		`a @@ b`,
		`a == "x\q"`, // bad escape
	} {
		if _, err := ParseConditions(src, nil); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestConditionsProgramValues(t *testing.T) {
	values := []string{"none", "low", "high"}
	prog, err := ParseConditions(
		`@level > 8 -> "high"; @level > 3 -> "low"; @level > 100;`, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		level string
		want  int
	}{
		{"10", 2}, {"5", 1}, {"1", 0}, {"200", 2},
	}
	for _, c := range cases {
		e := newEnv(map[string]string{"level": c.level}, values, []string{"K"})
		if got := evalProgram(prog, e); got != c.want {
			t.Errorf("level=%s: got %d, want %d", c.level, got, c.want)
		}
	}
}

func TestConditionsNestedProgram(t *testing.T) {
	values := []string{"none", "low", "high"}
	prog, err := ParseConditions(
		`app=="db" -> { @level > 5 -> "high"; true -> "low"; };`, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(map[string]string{"app": "db", "level": "9"}, values, nil)
	if got := evalProgram(prog, e); got != 2 {
		t.Fatalf("nested high: got %d", got)
	}
	e = newEnv(map[string]string{"app": "db", "level": "2"}, values, nil)
	if got := evalProgram(prog, e); got != 1 {
		t.Fatalf("nested low: got %d", got)
	}
	e = newEnv(map[string]string{"app": "other", "level": "9"}, values, nil)
	if got := evalProgram(prog, e); got != 0 {
		t.Fatalf("nested none: got %d", got)
	}
}

func TestConditionsUnknownComplianceValue(t *testing.T) {
	prog, err := ParseConditions(`true -> "bogus"; oper=="read";`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The clause with an unknown value contributes nothing; the valid
	// clause still fires.
	e := newEnv(map[string]string{"oper": "read"}, DefaultValues, nil)
	if got := evalProgram(prog, e); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	e = newEnv(map[string]string{"oper": "write"}, DefaultValues, nil)
	if got := evalProgram(prog, e); got != 0 {
		t.Fatalf("got %d, want 0", got)
	}
}

func TestEmptyConditionsIsMaxTrust(t *testing.T) {
	e := newEnv(nil, DefaultValues, nil)
	if got := evalProgram(nil, e); got != 1 {
		t.Fatalf("nil program: got %d, want 1", got)
	}
	empty, err := ParseConditions("  ", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := evalProgram(empty, e); got != 1 {
		t.Fatalf("empty program: got %d, want 1", got)
	}
}

func TestSpecialAttributes(t *testing.T) {
	attrs := map[string]string{}
	got, err := evalTest(t, `_MIN_TRUST=="false" && _MAX_TRUST=="true"`, attrs)
	if err != nil || !got {
		t.Fatalf("special attrs: %v %v", got, err)
	}
	prog, err := ParseConditions(`_ACTION_AUTHORIZERS ~= "Kalice"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(nil, DefaultValues, []string{"Kalice", "Kbob"})
	if evalProgram(prog, e) != 1 {
		t.Fatal("_ACTION_AUTHORIZERS not visible")
	}
}

func TestLocalConstantsInConditions(t *testing.T) {
	prog, err := ParseConditions(`domain==FIN`, map[string]string{"FIN": "Finance"})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(map[string]string{"domain": "Finance"}, DefaultValues, nil)
	if evalProgram(prog, e) != 1 {
		t.Fatal("constant not substituted")
	}
}

func TestLicenseesParseAndEval(t *testing.T) {
	vals := map[string]int{"K1": 2, "K2": 1, "K3": 0, "K4": 2}
	look := func(p string) int { return vals[p] }
	cases := []struct {
		src  string
		want int
	}{
		{`"K1"`, 2},
		{`"K3"`, 0},
		{`"K1" && "K2"`, 1},
		{`"K1" || "K3"`, 2},
		{`"K2" || "K3"`, 1},
		{`("K1" && "K2") || "K4"`, 2},
		{`2-of("K1","K2","K3")`, 1},
		{`1-of("K2","K3")`, 1},
		{`3-of("K1","K2","K3")`, 0},
		{`2-of("K1", "K4", "K3")`, 2},
		{`2-of("K1" && "K2", "K4", "K3")`, 1},
	}
	for _, c := range cases {
		le, err := ParseLicensees(c.src, nil)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if got := le.evalLic(look); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestLicenseesConstants(t *testing.T) {
	le, err := ParseLicensees(`Alice || "K2"`, map[string]string{"Alice": "ed25519:aa"})
	if err != nil {
		t.Fatal(err)
	}
	ps := le.Principals(nil)
	if len(ps) != 2 || ps[0] != "ed25519:aa" {
		t.Fatalf("principals = %v", ps)
	}
}

func TestLicenseesParseErrors(t *testing.T) {
	for _, src := range []string{
		`"K1" &&`,
		`( "K1"`,
		`0-of("K1")`,
		`3-of("K1","K2")`,
		`"K1" "K2"`,
		`2-of()`,
		`&&`,
	} {
		if _, err := ParseLicensees(src, nil); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
}

func TestLicenseesEmpty(t *testing.T) {
	le, err := ParseLicensees("   ", nil)
	if err != nil || le != nil {
		t.Fatalf("empty licensees: %v, %v", le, err)
	}
}

func TestKOfLexingDoesNotEatIdents(t *testing.T) {
	// "2-of" must lex as threshold; "2-offset" must not.
	toks, err := lexAll("2-of(")
	if err != nil || toks[0].kind != tKOf {
		t.Fatalf("2-of: %v %v", toks, err)
	}
	if _, err := lexAll("2-offset"); err == nil {
		// "2-offset" lexes as NUMBER MINUS IDENT — fine, not KOf.
		toks, _ := lexAll("2-offset")
		if toks[0].kind == tKOf {
			t.Fatal("2-offset lexed as threshold")
		}
	}
}

// Property: rendering a parsed expression and re-parsing it yields an
// expression with identical evaluation behaviour.
func TestQuickExprRenderRoundTrip(t *testing.T) {
	exprs := []string{
		`app_domain=="SalariesDB" && (oper=="read" || oper=="write")`,
		`@level > 5 && @level < 10 || name ~= "mgr"`,
		`a . b == "xy"`,
		`!(@n % 3 == 0) && &f >= 1.25`,
		`$("a" . "b") != "" || 2^10 == 1024`,
	}
	attrGen := func(seed uint) map[string]string {
		return map[string]string{
			"app_domain": []string{"SalariesDB", "OrdersDB"}[seed%2],
			"oper":       []string{"read", "write", "del"}[seed%3],
			"level":      []string{"3", "7", "12"}[seed%3],
			"name":       []string{"mgr", "clerk"}[seed%2],
			"a":          "x", "b": "y", "ab": "z",
			"n": []string{"3", "4"}[seed%2], "f": "1.5",
		}
	}
	f := func(pick uint8, seed uint) bool {
		src := exprs[int(pick)%len(exprs)]
		p1, err := ParseConditions(src, nil)
		if err != nil {
			return false
		}
		p2, err := ParseConditions(p1.String(), nil)
		if err != nil {
			return false
		}
		attrs := attrGen(seed)
		e1 := newEnv(attrs, DefaultValues, nil)
		e2 := newEnv(attrs, DefaultValues, nil)
		return evalProgram(p1, e1) == evalProgram(p2, e2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringEscapes(t *testing.T) {
	got, err := evalTest(t, `x == "a\"b\\c\n\t"`, map[string]string{"x": "a\"b\\c\n\t"})
	if err != nil || !got {
		t.Fatalf("escapes: %v %v", got, err)
	}
}

func TestFloatLexNotConcat(t *testing.T) {
	// 1.5 must lex as a float; "a" . "b" as concatenation.
	got, err := evalTest(t, `1.5 * 2 == 3`, nil)
	if err != nil || !got {
		t.Fatalf("float: %v %v", got, err)
	}
	got, err = evalTest(t, `"a" . "b" == "ab"`, nil)
	if err != nil || !got {
		t.Fatalf("concat: %v %v", got, err)
	}
}

func TestProgramStringRendering(t *testing.T) {
	src := `a=="x" -> "low"; b=="y" -> { c=="z"; }; d=="w";`
	p, err := ParseConditions(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, frag := range []string{`"low"`, "->", "{", "}", ";"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rendered program %q missing %q", s, frag)
		}
	}
	if _, err := ParseConditions(s, nil); err != nil {
		t.Fatalf("re-parse of rendered program: %v", err)
	}
}
