// Package compile is a static-analysis front end and compiler for
// admitted KeyNote credential sets. It abstract-interprets every
// Conditions program (constant folding, type inference, interval
// analysis of comparison atoms), prunes clauses that can never
// contribute, and emits a decision DAG: interned principals, postfix
// licensee programs and stack-machine bytecode for condition tests,
// evaluable without parse-tree walks or per-check map churn. Both the
// VM and the constant folder compute values with internal/keynote's
// value kernel, the same one the tree-walking interpreter uses.
//
// The DAG's Check is observationally identical to
// keynote.Checker.CheckPreverified on the same admitted set: same
// Result (Value, Index, PrincipalValues, Chain, Passes), same error
// strings. That parity is what lets authz keep Trace/Explain derivable
// from compiled runs, and it is guarded by FuzzCompiledVsInterpreted.
//
// The analysis facts gathered while compiling (always-true/false
// clauses, type-confused operations, interval contradictions, dead
// assertions) feed policylint rules PL011–PL014.
package compile

import (
	"fmt"
	"regexp"
	"sync"

	"securewebcom/internal/keynote"
)

// DAG is a compiled decision graph over an admitted credential set:
// principals interned to dense ids (POLICY is always pid 0), licensee
// expressions compiled to postfix programs over those ids, condition
// tests compiled to stack-machine bytecode with constants folded and
// statically void clauses pruned. Check evaluates queries against it
// with the same observable semantics as keynote.Checker.CheckPreverified
// on the same set — same Result fields, same error strings — but without
// parse-tree walks, per-check map construction or principal re-
// canonicalisation.
//
// Principal canonicalisation is frozen at compile time (licensees and
// authorizers of the admitted assertions); only query authorizers hit
// the resolver per check. The authz engine compiles per
// CredentialSession, whose fingerprint keys the compilation cache, and
// drops sessions — hence compiled DAGs — on Invalidate/OnCommit, which
// also flushes its MemoResolver: the two stay consistent by sharing
// that lifecycle.
//
// A DAG is safe for concurrent Check calls; per-call scratch state
// lives in pooled valuations.
type DAG struct {
	nAdmitted  int // all analysed assertions, including statically void ones
	principals []string
	pidOf      map[string]int
	evalList   []cAssert
	consts     []keynote.Value
	regexes    []*regexp.Regexp // nil entry = constant pattern that does not compile
	slotNames  []string
	facts      []Fact
	stats      Stats
	resolver   keynote.Resolver
	pool       sync.Pool
}

// Stats summarises what compilation did, for telemetry and tests.
type Stats struct {
	// Assertions is the number of admitted assertions analysed.
	Assertions int
	// EvalAssertions is how many remain in the evaluation list after
	// dead-branch elimination (statically void conditions, no
	// licensees).
	EvalAssertions int
	// Principals is the number of interned principals (including
	// POLICY).
	Principals int
	// PrunedClauses counts condition clauses dropped as statically
	// unable to contribute.
	PrunedClauses int
}

// Facts returns the static-analysis findings recorded during
// compilation, in discovery order.
func (d *DAG) Facts() []Fact { return append([]Fact(nil), d.facts...) }

// Stats returns compilation statistics.
func (d *DAG) Stats() Stats { return d.stats }

// cAssert is one assertion in the evaluation list.
type cAssert struct {
	author  int // pid
	lic     []licInstr
	licPids []int // licensee pids in raw traversal order, for chain walks
	cond    *cProg
	// admitted is the assertion's index in the admitted set, for
	// provenance.
	admitted int
}

// cProg is a compiled conditions program.
type cProg struct {
	static  int8
	clauses []cClause
}

const (
	progDynamic int8 = iota
	progZero         // never contributes
	progMax          // always _MAX_TRUST
)

// cClause is one surviving clause: test bytecode (nil = statically
// true), and the interpreter's value/sub contribution forms.
type cClause struct {
	test  []instr
	value string
	sub   *cProg
}

type compiler struct {
	resolver   keynote.Resolver
	canonMemo  map[string]string
	pidOf      map[string]int
	principals []string
	consts     []keynote.Value
	constIdx   map[keynote.Value]int
	regexes    []*regexp.Regexp
	regexIdx   map[string]int
	slotNames  []string
	slotIdx    map[string]int
	facts      []Fact
	code       []instr
	pruned     int

	// Provenance cursor for facts.
	aIdx      int
	clauseIdx int
	clausePos int
}

func newCompiler(resolver keynote.Resolver) *compiler {
	c := &compiler{
		resolver:  resolver,
		canonMemo: make(map[string]string),
		pidOf:     make(map[string]int),
		constIdx:  make(map[keynote.Value]int),
		regexIdx:  make(map[string]int),
		slotIdx:   make(map[string]int),
	}
	c.pid(keynote.PolicyPrincipal) // POLICY is always pid 0
	return c
}

func (c *compiler) canon(p string) string {
	if p == keynote.PolicyPrincipal || c.resolver == nil {
		return p
	}
	if id, ok := c.canonMemo[p]; ok {
		return id
	}
	id := p
	if r, err := c.resolver.Resolve(p); err == nil {
		id = r
	}
	c.canonMemo[p] = id
	return id
}

func (c *compiler) pid(canonical string) int {
	if id, ok := c.pidOf[canonical]; ok {
		return id
	}
	id := len(c.principals)
	c.pidOf[canonical] = id
	c.principals = append(c.principals, canonical)
	return id
}

func (c *compiler) constant(v keynote.Value) int {
	if i, ok := c.constIdx[v]; ok {
		return i
	}
	i := len(c.consts)
	c.constIdx[v] = i
	c.consts = append(c.consts, v)
	return i
}

func (c *compiler) regex(re *regexp.Regexp) int {
	if i, ok := c.regexIdx[re.String()]; ok {
		return i
	}
	i := len(c.regexes)
	c.regexIdx[re.String()] = i
	c.regexes = append(c.regexes, re)
	return i
}

func (c *compiler) slot(name string) int {
	if i, ok := c.slotIdx[name]; ok {
		return i
	}
	i := len(c.slotNames)
	c.slotIdx[name] = i
	c.slotNames = append(c.slotNames, name)
	return i
}

// compileLic lowers a licensee expression to postfix form, collecting
// the canonical pids in raw traversal order for chain reconstruction.
func (c *compiler) compileLic(e keynote.LicExpr, code []licInstr, pids []int) ([]licInstr, []int) {
	switch x := e.(type) {
	case *keynote.LicPrincipal:
		pid := c.pid(c.canon(x.Name))
		return append(code, licInstr{op: licPush, a: int32(pid)}), append(pids, pid)
	case *keynote.LicAnd:
		code, pids = c.compileLic(x.L, code, pids)
		code, pids = c.compileLic(x.R, code, pids)
		return append(code, licInstr{op: licAnd}), pids
	case *keynote.LicOr:
		code, pids = c.compileLic(x.L, code, pids)
		code, pids = c.compileLic(x.R, code, pids)
		return append(code, licInstr{op: licOr}), pids
	case *keynote.LicThreshold:
		for _, s := range x.Subs {
			code, pids = c.compileLic(s, code, pids)
		}
		return append(code, licInstr{op: licKOf, a: int32(x.K), b: int32(len(x.Subs))}), pids
	}
	panic("compile: unknown licensee node")
}

// compileProgram lowers a conditions program, pruning clauses that can
// never contribute and recording the facts that justify each pruning.
func (c *compiler) compileProgram(p *keynote.Program, top bool) *cProg {
	if p == nil || len(p.Clauses) == 0 {
		return &cProg{static: progMax}
	}
	out := &cProg{}
	for i, cl := range p.Clauses {
		if top {
			c.clauseIdx = i
		}
		c.clausePos = cl.Pos

		var test []instr
		dead := false
		switch {
		case cl.Test == nil: // programmatically built always-true clause
		default:
			c.code = c.code[:0]
			av := c.emit(cl.Test)
			switch {
			case av.mustErr:
				dead = true // the erroring subexpression recorded its fact
			case av.notKind(keynote.ValBool) && !av.known:
				c.fact(FactAlwaysFalse, cl.Test, "clause test never yields a boolean")
				dead = true
			case av.known && !av.v.Bool:
				c.fact(FactAlwaysFalse, cl.Test, "clause test is always false")
				dead = true
			case av.known && av.v.Bool:
				c.fact(FactAlwaysTrue, cl.Test, "clause test is always true")
				// test stays nil: satisfied without evaluation
			case c.intervalUnsat(cl.Test):
				dead = true
			default:
				test = append([]instr(nil), c.code...)
			}
		}
		if dead {
			c.pruned++
			continue
		}

		var sub *cProg
		if cl.Sub != nil {
			sub = c.compileProgram(cl.Sub, false)
			if sub.static == progZero {
				// The nested program contributes 0 whatever happens, so
				// the clause as a whole never raises the result.
				c.pruned++
				continue
			}
		}
		out.clauses = append(out.clauses, cClause{test: test, value: cl.Value, sub: sub})
	}

	if len(out.clauses) == 0 {
		out.static = progZero
		return out
	}
	for _, cl := range out.clauses {
		if cl.test == nil && cl.value == "" && (cl.sub == nil || cl.sub.static == progMax) {
			// An unconditionally satisfied bare clause: the program
			// always yields _MAX_TRUST (max over clauses).
			out.static = progMax
			break
		}
	}
	return out
}

// analyse runs the front end over an assertion set in the given order.
// POLICY roots are recognised by authorizer, so both admitted-order
// (policy first) and arbitrary lint-order sets work.
func analyse(asserts []*keynote.Assertion, resolver keynote.Resolver) (*compiler, []cAssert, []*cProg) {
	c := newCompiler(resolver)
	conds := make([]*cProg, len(asserts))
	var evalList []cAssert
	for i, a := range asserts {
		c.aIdx, c.clauseIdx, c.clausePos = i, -1, 0
		author := keynote.PolicyPrincipal
		if !a.IsPolicy() {
			author = c.canon(a.Authorizer)
		}
		authorPid := c.pid(author)

		c.clauseIdx = 0
		var cond *cProg
		if a.Conditions != nil {
			cond = c.compileProgram(a.Conditions, true)
		}
		conds[i] = cond

		if a.Licensees == nil || (cond != nil && cond.static == progZero) {
			// Never grants: no licensees to raise the author, or
			// conditions that are statically void. The interpreter skips
			// these inside the fixpoint; here they are elided from the
			// evaluation list entirely (they can never change the
			// valuation, so Passes and every Result field are
			// unaffected).
			continue
		}
		lic, pids := c.compileLic(a.Licensees, nil, nil)
		ca := cAssert{author: authorPid, lic: lic, licPids: pids, admitted: i}
		if cond != nil && cond.static != progMax {
			ca.cond = cond
		}
		evalList = append(evalList, ca)
	}
	c.deadAssertions(asserts, conds)
	return c, evalList, conds
}

// deadAssertions records PL013 facts: assertions whose authorizer is
// unreachable from POLICY once statically void assertions stop
// contributing delegation edges — but that plain reachability (PL002's
// check, which ignores conditions) still considers connected, so the
// two rules never double-report.
func (c *compiler) deadAssertions(asserts []*keynote.Assertion, conds []*cProg) {
	reach := func(skipVoid bool) []bool {
		// c.pid may intern a principal for the first time here (the
		// licensees of a statically void assertion were never compiled),
		// so the liveness slice grows on demand.
		live := make([]bool, len(c.principals))
		at := func(pid int) bool { return pid < len(live) && live[pid] }
		mark := func(pid int) {
			for len(live) <= pid {
				live = append(live, false)
			}
			live[pid] = true
		}
		live[0] = true // POLICY
		for changed := true; changed; {
			changed = false
			for i, a := range asserts {
				if a.Licensees == nil {
					continue
				}
				if skipVoid && conds[i] != nil && conds[i].static == progZero {
					continue
				}
				author := keynote.PolicyPrincipal
				if !a.IsPolicy() {
					author = c.canon(a.Authorizer)
				}
				if !at(c.pid(author)) {
					continue
				}
				for _, p := range a.Licensees.Principals(nil) {
					pid := c.pid(c.canon(p))
					if !at(pid) {
						mark(pid)
						changed = true
					}
				}
			}
		}
		return live
	}
	live := reach(true)
	raw := reach(false)
	in := func(set []bool, pid int) bool { return pid < len(set) && set[pid] }
	for i, a := range asserts {
		if a.IsPolicy() {
			continue
		}
		pid := c.pid(c.canon(a.Authorizer))
		if !in(live, pid) && in(raw, pid) {
			c.aIdx, c.clauseIdx, c.clausePos = i, -1, 0
			c.facts = append(c.facts, Fact{
				Kind:      FactDeadAssertion,
				Assertion: i,
				Clause:    -1,
				Detail: fmt.Sprintf("authorizer %s is unreachable from POLICY once statically void assertions are removed",
					truncate(a.Authorizer, 24)),
			})
		}
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Compile builds a decision DAG over a checker's policy assertions plus
// an admitted (signature-verified, POLICY-free) credential set, in the
// same order the interpreter admits them: policy first, then
// credentials. It fails only on misuse — a non-POLICY assertion in the
// policy slice, or a POLICY assertion among the credentials — so
// callers can fall back to the interpreter.
func Compile(policy, credentials []*keynote.Assertion, resolver keynote.Resolver) (*DAG, error) {
	for _, p := range policy {
		if !p.IsPolicy() {
			return nil, fmt.Errorf("compile: assertion authorised by %q supplied as policy", truncate(p.Authorizer, 24))
		}
	}
	for _, cr := range credentials {
		if cr.IsPolicy() {
			return nil, fmt.Errorf("compile: POLICY assertion supplied as credential")
		}
	}
	admitted := make([]*keynote.Assertion, 0, len(policy)+len(credentials))
	admitted = append(append(admitted, policy...), credentials...)

	c, evalList, _ := analyse(admitted, resolver)
	d := &DAG{
		nAdmitted:  len(admitted),
		principals: c.principals,
		pidOf:      c.pidOf,
		evalList:   evalList,
		consts:     c.consts,
		regexes:    c.regexes,
		slotNames:  c.slotNames,
		facts:      c.facts,
		resolver:   resolver,
		stats: Stats{
			Assertions:     len(admitted),
			EvalAssertions: len(evalList),
			Principals:     len(c.principals),
			PrunedClauses:  c.pruned,
		},
	}
	d.pool.New = func() any { return newValuation(d) }
	return d, nil
}

// AnalyzeAssertions runs the static analysis alone over a mixed set
// (POLICY roots recognised by authorizer, order preserved in fact
// indices) and returns the facts. This is the entry point policylint
// uses for PL011–PL014.
func AnalyzeAssertions(asserts []*keynote.Assertion, resolver keynote.Resolver) []Fact {
	c, _, _ := analyse(asserts, resolver)
	return c.facts
}
