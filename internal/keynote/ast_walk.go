package keynote

// Exported structural access to the Conditions AST. The expression node
// types themselves stay unexported (their eval methods are the
// interpreter's internals), but static analysers — in particular
// internal/keynote/compile — need to walk parsed programs. Decompose
// returns a flattened, read-only view of one node; analyses recurse
// through the L/R children.

// ExprKind discriminates the exported view of a Conditions AST node.
type ExprKind int

// The node kinds.
const (
	KindBinary ExprKind = iota // L op R
	KindNot                    // !L
	KindNeg                    // -L (unary minus)
	KindBool                   // true / false literal
	KindNum                    // numeric literal (NumText holds the source text)
	KindStr                    // string literal
	KindAttr                   // attribute reference: Attr, or $L when L != nil
	KindDeref                  // numeric dereference: @L (Float=false) or &L (Float=true)
)

// ExprOp is the operator of a KindBinary node.
type ExprOp int

// The binary operators, grouped by precedence tier.
const (
	OpNone   ExprOp = iota
	OpOr            // ||
	OpAnd           // &&
	OpEq            // ==
	OpNe            // !=
	OpLt            // <
	OpGt            // >
	OpLe            // <=
	OpGe            // >=
	OpMatch         // ~=
	OpAdd           // +
	OpSub           // -
	OpConcat        // .
	OpMul           // *
	OpDiv           // /
	OpMod           // %
	OpPow           // ^
)

func (op ExprOp) String() string {
	switch op {
	case OpOr:
		return "||"
	case OpAnd:
		return "&&"
	case OpEq:
		return "=="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	case OpMatch:
		return "~="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpConcat:
		return "."
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpPow:
		return "^"
	}
	return "?"
}

// IsComparison reports whether op is one of the six ordering comparisons
// (regex match excluded).
func (op ExprOp) IsComparison() bool {
	switch op {
	case OpEq, OpNe, OpLt, OpGt, OpLe, OpGe:
		return true
	}
	return false
}

// opOfTok maps comparison, additive and multiplicative operator tokens
// to their binary operators; the parser builds &&, || and ^ nodes
// directly.
var opOfTok = map[tokKind]ExprOp{
	tEq:      OpEq,
	tNe:      OpNe,
	tLt:      OpLt,
	tGt:      OpGt,
	tLe:      OpLe,
	tGe:      OpGe,
	tMatch:   OpMatch,
	tPlus:    OpAdd,
	tMinus:   OpSub,
	tDot:     OpConcat,
	tStar:    OpMul,
	tSlash:   OpDiv,
	tPercent: OpMod,
}

// ExprNode is the exported shape of one Conditions AST node. Which
// fields are meaningful depends on Kind:
//
//	KindBinary  Op, L, R
//	KindNot     L
//	KindNeg     L
//	KindBool    Bool
//	KindNum     NumText (original literal text; parse as the evaluator
//	            does: integer unless it contains '.')
//	KindStr     Str (escapes already resolved)
//	KindAttr    Attr (direct, L == nil) or L (the $-indirection operand)
//	KindDeref   L, Float (@ = integer, & = float)
type ExprNode struct {
	Kind    ExprKind
	Op      ExprOp
	L, R    Expr
	Bool    bool
	NumText string
	Str     string
	Attr    string
	Float   bool
}

// Decompose exposes the structure of a parsed Conditions expression
// node. It panics on nil input.
func Decompose(e Expr) ExprNode {
	switch x := e.(type) {
	case *binOp:
		return ExprNode{Kind: KindBinary, Op: x.op, L: x.l, R: x.r}
	case *notExpr:
		return ExprNode{Kind: KindNot, L: x.x}
	case *negExpr:
		return ExprNode{Kind: KindNeg, L: x.x}
	case *boolLit:
		return ExprNode{Kind: KindBool, Bool: x.v}
	case *numLit:
		return ExprNode{Kind: KindNum, NumText: x.text}
	case *strLit:
		return ExprNode{Kind: KindStr, Str: x.v}
	case *attrRef:
		if x.indirect != nil {
			return ExprNode{Kind: KindAttr, L: x.indirect}
		}
		return ExprNode{Kind: KindAttr, Attr: x.name}
	case *numDeref:
		return ExprNode{Kind: KindDeref, L: x.x, Float: x.float}
	}
	panic("keynote: Decompose of unknown expression node")
}
