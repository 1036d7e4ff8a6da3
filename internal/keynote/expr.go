package keynote

import (
	"fmt"
	"strings"
)

// This file defines the AST and recursive-descent parsers for the two
// KeyNote sub-languages:
//
//   - the Conditions program (RFC 2704 section 5: clauses of the form
//     "test", "test -> value" or "test -> { program }", separated by ';'),
//     whose tests are dynamically typed C-like expressions over the action
//     attribute set; and
//
//   - the Licensees algebra ("K1 && (K2 || K3)", "2-of(K1,K2,K3)").

// Expr is a node in a Conditions test/term expression.
type Expr interface {
	// String renders the expression in canonical concrete syntax.
	String() string
	// eval evaluates the expression against an environment. Errors (type
	// mismatches, undefined numeric dereferences, bad regexes, division by
	// zero) make the enclosing clause fail rather than aborting the query.
	eval(env *env) (Value, error)
}

// Program is a parsed Conditions field: an ordered list of clauses.
type Program struct {
	Clauses []Clause
}

// Clause is one conditions clause. If Sub is non-nil the clause is
// "Test -> { Sub }"; else if Value is non-empty it is "Test -> Value";
// otherwise a bare "Test" contributing _MAX_TRUST when satisfied.
type Clause struct {
	Test  Expr
	Value string
	Sub   *Program
	// Pos is the byte offset of the clause's first token in the source
	// given to ParseConditions (0 for programmatically built clauses).
	// Static analysis uses it for atom→source-span provenance.
	Pos int
}

func (p *Program) String() string {
	if p == nil || len(p.Clauses) == 0 {
		return ""
	}
	parts := make([]string, len(p.Clauses))
	for i, c := range p.Clauses {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ")
}

func (c Clause) String() string {
	switch {
	case c.Sub != nil:
		return fmt.Sprintf("%s -> { %s };", c.Test, c.Sub)
	case c.Value != "":
		return fmt.Sprintf("%s -> %s;", c.Test, quoteKN(c.Value))
	default:
		return c.Test.String() + ";"
	}
}

// quoteKN renders a string literal using only the escapes the KeyNote
// lexer accepts (\" \\ \n \t); all other bytes are written raw.
func quoteKN(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// ---- Expression nodes ----

type binOp struct {
	op   ExprOp
	l, r Expr
}

type notExpr struct{ x Expr }

type negExpr struct{ x Expr } // unary minus

type boolLit struct{ v bool }

// numLit retains its source text for rendering and holds the literal's
// value, parsed once (ok=false: out of numeric range, which fails
// evaluation).
type numLit struct {
	text string
	v    Value
	ok   bool
}

type strLit struct{ v string }

// attrRef is a string-valued attribute reference: a bare identifier, or
// "$ <term>" (indirect: the term's string value names the attribute).
type attrRef struct {
	name     string // non-empty for direct references
	indirect Expr   // non-nil for $-indirection
}

// numDeref is "@term" (integer) or "&term" (float) dereference of an
// attribute value interpreted as a number.
type numDeref struct {
	float bool
	x     Expr
}

func (e *binOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.l, e.op, e.r)
}
func (e *notExpr) String() string { return "!" + e.x.String() }
func (e *negExpr) String() string { return "-" + e.x.String() }
func (e *boolLit) String() string { return map[bool]string{true: "true", false: "false"}[e.v] }
func (e *numLit) String() string  { return e.text }
func (e *strLit) String() string  { return quoteKN(e.v) }
func (e *attrRef) String() string {
	if e.indirect != nil {
		return "$" + e.indirect.String()
	}
	return e.name
}
func (e *numDeref) String() string {
	op := "@"
	if e.float {
		op = "&"
	}
	// Parenthesise everything but a plain attribute reference: "&&x"
	// would re-lex as the boolean operator.
	if a, ok := e.x.(*attrRef); ok && a.indirect == nil {
		return op + a.name
	}
	return op + "(" + e.x.String() + ")"
}

// ---- Licensees algebra ----

// LicExpr is a node in a Licensees expression.
type LicExpr interface {
	// String renders the expression canonically.
	String() string
	// Principals appends all principal names mentioned to dst.
	Principals(dst []string) []string
	// evalLic computes the compliance-value index of the expression given
	// a valuation of individual principals.
	evalLic(val func(principal string) int) int
}

// LicPrincipal is a single principal (key or local-constant name).
type LicPrincipal struct{ Name string }

// LicAnd is conjunction: both licensees must authorise (min).
type LicAnd struct{ L, R LicExpr }

// LicOr is disjunction: either licensee suffices (max).
type LicOr struct{ L, R LicExpr }

// LicThreshold is "K-of(e1, ..., en)": at least K of the sub-expressions
// must authorise; the value is the K-th largest sub-value.
type LicThreshold struct {
	K    int
	Subs []LicExpr
}

func (l *LicPrincipal) String() string { return fmt.Sprintf("%q", l.Name) }
func (l *LicAnd) String() string       { return fmt.Sprintf("(%s && %s)", l.L, l.R) }
func (l *LicOr) String() string        { return fmt.Sprintf("(%s || %s)", l.L, l.R) }
func (l *LicThreshold) String() string {
	parts := make([]string, len(l.Subs))
	for i, s := range l.Subs {
		parts[i] = s.String()
	}
	return fmt.Sprintf("%d-of(%s)", l.K, strings.Join(parts, ", "))
}

func (l *LicPrincipal) Principals(dst []string) []string { return append(dst, l.Name) }
func (l *LicAnd) Principals(dst []string) []string       { return l.R.Principals(l.L.Principals(dst)) }
func (l *LicOr) Principals(dst []string) []string        { return l.R.Principals(l.L.Principals(dst)) }
func (l *LicThreshold) Principals(dst []string) []string {
	for _, s := range l.Subs {
		dst = s.Principals(dst)
	}
	return dst
}

// ---- Parsers ----

type parser struct {
	toks []token
	i    int
	src  string
	// consts maps local-constant names to their string values; identifiers
	// matching a constant parse as string literals (RFC 2704 section 4.6.4).
	consts map[string]string
}

func newParser(src string, consts map[string]string) (*parser, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, src: src, consts: consts}, nil
}

func (p *parser) cur() token { return p.toks[p.i] }
func (p *parser) advance()   { p.i++ }
func (p *parser) at(k tokKind) bool {
	return p.toks[p.i].kind == k
}
func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}
func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errf("expected %s, found %s", k, p.cur().kind)
	}
	t := p.cur()
	p.advance()
	return t, nil
}
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("keynote: parse error at offset %d in %q: %s",
		p.cur().pos, truncate(p.src, 60), fmt.Sprintf(format, args...))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// ParseConditions parses a Conditions program. consts supplies
// Local-Constants bindings (may be nil). An empty program (always
// _MAX_TRUST) is returned for blank input.
func ParseConditions(src string, consts map[string]string) (*Program, error) {
	p, err := newParser(src, consts)
	if err != nil {
		return nil, err
	}
	prog, err := p.parseProgram(true)
	if err != nil {
		return nil, err
	}
	if !p.at(tEOF) {
		return nil, p.errf("trailing input after conditions program")
	}
	return prog, nil
}

// parseProgram parses clause* . At top level a final clause may omit the
// trailing ';' (the paper's figures do so); inside braces ';' separates.
func (p *parser) parseProgram(top bool) (*Program, error) {
	prog := &Program{}
	for {
		if p.at(tEOF) || p.at(tRBrace) {
			return prog, nil
		}
		pos := p.cur().pos
		test, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cl := Clause{Test: test, Pos: pos}
		if p.accept(tArrow) {
			switch {
			case p.accept(tLBrace):
				sub, err := p.parseProgram(false)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tRBrace); err != nil {
					return nil, err
				}
				cl.Sub = sub
			case p.at(tString):
				cl.Value = p.cur().text
				p.advance()
			default:
				return nil, p.errf("expected compliance value or { program } after ->")
			}
		}
		prog.Clauses = append(prog.Clauses, cl)
		if !p.accept(tSemi) {
			// Allow a missing trailing semicolon before EOF/'}'.
			if p.at(tEOF) || p.at(tRBrace) {
				return prog, nil
			}
			return nil, p.errf("expected ';' between clauses")
		}
	}
}

// Expression precedence (loosest to tightest):
//
//	||  &&  !  (== != < > <= >= ~=)  (+ - .)  (* / %)  unary-  ^  primary
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(tOrOr) {
		p.advance()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: OpOr, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.at(tAndAnd) {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &binOp{op: OpAnd, l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tNot) {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notExpr{x: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	switch k := p.cur().kind; k {
	case tEq, tNe, tLt, tGt, tLe, tGe, tMatch:
		p.advance()
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &binOp{op: opOfTok[k], l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch k := p.cur().kind; k {
		case tPlus, tMinus, tDot:
			p.advance()
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &binOp{op: opOfTok[k], l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch k := p.cur().kind; k {
		case tStar, tSlash, tPercent:
			p.advance()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &binOp{op: opOfTok[k], l: l, r: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tMinus) {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &negExpr{x: x}, nil
	}
	return p.parsePower()
}

func (p *parser) parsePower() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.accept(tCaret) {
		r, err := p.parsePower() // right-associative
		if err != nil {
			return nil, err
		}
		return &binOp{op: OpPow, l: l, r: r}, nil
	}
	return l, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch t := p.cur(); t.kind {
	case tNumber:
		p.advance()
		v, ok := NumLit(t.text)
		return &numLit{text: t.text, v: v, ok: ok}, nil
	case tString:
		p.advance()
		return &strLit{v: t.text}, nil
	case tIdent:
		p.advance()
		switch t.text {
		case "true":
			return &boolLit{v: true}, nil
		case "false":
			return &boolLit{v: false}, nil
		}
		if p.consts != nil {
			if v, ok := p.consts[t.text]; ok {
				return &strLit{v: v}, nil
			}
		}
		return &attrRef{name: t.text}, nil
	case tDollar:
		p.advance()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &attrRef{indirect: x}, nil
	case tAt:
		p.advance()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &numDeref{float: false, x: x}, nil
	case tAmp:
		p.advance()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &numDeref{float: true, x: x}, nil
	case tLParen:
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("unexpected %s in expression", p.cur().kind)
}

// ParseLicensees parses a Licensees field. consts supplies Local-Constants
// bindings: identifiers matching a constant denote the constant's value
// (typically a key). Blank input yields nil (no licensees: the assertion
// authorises nobody).
func ParseLicensees(src string, consts map[string]string) (LicExpr, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	p, err := newParser(src, consts)
	if err != nil {
		return nil, err
	}
	e, err := p.parseLicOr()
	if err != nil {
		return nil, err
	}
	if !p.at(tEOF) {
		return nil, p.errf("trailing input after licensees expression")
	}
	return e, nil
}

func (p *parser) parseLicOr() (LicExpr, error) {
	l, err := p.parseLicAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tOrOr) {
		r, err := p.parseLicAnd()
		if err != nil {
			return nil, err
		}
		l = &LicOr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseLicAnd() (LicExpr, error) {
	l, err := p.parseLicPrimary()
	if err != nil {
		return nil, err
	}
	for p.accept(tAndAnd) {
		r, err := p.parseLicPrimary()
		if err != nil {
			return nil, err
		}
		l = &LicAnd{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseLicPrimary() (LicExpr, error) {
	switch t := p.cur(); t.kind {
	case tString:
		p.advance()
		return &LicPrincipal{Name: t.text}, nil
	case tIdent:
		p.advance()
		name := t.text
		if p.consts != nil {
			if v, ok := p.consts[name]; ok {
				name = v
			}
		}
		return &LicPrincipal{Name: name}, nil
	case tKOf:
		p.advance()
		k := 0
		for _, c := range t.text {
			k = k*10 + int(c-'0')
		}
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		th := &LicThreshold{K: k}
		for {
			sub, err := p.parseLicOr()
			if err != nil {
				return nil, err
			}
			th.Subs = append(th.Subs, sub)
			if p.accept(tComma) {
				continue
			}
			break
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		if k < 1 || k > len(th.Subs) {
			return nil, p.errf("threshold %d out of range for %d licensees", k, len(th.Subs))
		}
		return th, nil
	case tLParen:
		p.advance()
		e, err := p.parseLicOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected %s in licensees expression", p.cur().kind)
}
