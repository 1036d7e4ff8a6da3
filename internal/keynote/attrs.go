package keynote

// Static attribute-reference analysis over parsed Conditions programs.
// internal/webcom uses it to decide which (principal, operation) verdicts
// are safe to stamp into a session-admission verdict set: a verdict may be
// amortised across tasks only when every attribute the governing
// assertions can read is fixed for the whole session, so the analysis
// must report exactly what a program might look at — including the fact
// that it cannot tell ($-indirection).

// AttrRefs is the result of ReferencedAttributes: the set of attribute
// names a Conditions program reads directly, plus whether it also
// contains computed references the analysis cannot name.
type AttrRefs struct {
	// Names holds every directly referenced attribute name.
	Names map[string]struct{}
	// Dynamic is true when the program contains a $-indirection
	// (attribute name computed at evaluation time): Names is then a
	// lower bound, not the full read set.
	Dynamic bool
}

// Subset reports whether every referenced name is in allowed and the
// program has no dynamic references.
func (r AttrRefs) Subset(allowed map[string]struct{}) bool {
	if r.Dynamic {
		return false
	}
	for name := range r.Names {
		if _, ok := allowed[name]; !ok {
			return false
		}
	}
	return true
}

// ReferencedAttributes collects the attribute names read by a parsed
// Conditions program, recursing through nested clause sub-programs. A
// nil program references nothing.
func ReferencedAttributes(p *Program) AttrRefs {
	r := AttrRefs{Names: make(map[string]struct{})}
	r.addProgram(p)
	return r
}

func (r *AttrRefs) addProgram(p *Program) {
	if p == nil {
		return
	}
	for _, cl := range p.Clauses {
		if cl.Test != nil {
			r.addExpr(cl.Test)
		}
		r.addProgram(cl.Sub)
	}
}

func (r *AttrRefs) addExpr(e Expr) {
	n := Decompose(e)
	switch n.Kind {
	case KindBinary:
		r.addExpr(n.L)
		r.addExpr(n.R)
	case KindNot, KindNeg, KindDeref:
		r.addExpr(n.L)
	case KindAttr:
		if n.L != nil {
			// $-indirection: the referenced name is itself computed, so
			// the full read set is unknowable statically. Still walk the
			// operand — it reads attributes of its own.
			r.Dynamic = true
			r.addExpr(n.L)
			return
		}
		r.Names[n.Attr] = struct{}{}
	}
}
