package plan

import (
	"fmt"
	"strings"

	"repro/internal/col"
	"repro/internal/sql"
)

// aggFuncs maps SQL aggregate names to AggFunc.
var aggFuncs = map[string]AggFunc{
	"COUNT": AggCount,
	"SUM":   AggSum,
	"AVG":   AggAvg,
	"MIN":   AggMin,
	"MAX":   AggMax,
}

// containsAggAST reports whether an AST expression contains an aggregate
// function call.
func containsAggAST(e sql.Expr) bool {
	found := false
	var rec func(sql.Expr)
	rec = func(x sql.Expr) {
		if found || x == nil {
			return
		}
		switch n := x.(type) {
		case *sql.FuncCall:
			if _, ok := aggFuncs[n.Name]; ok {
				found = true
				return
			}
			for _, a := range n.Args {
				rec(a)
			}
		case *sql.Unary:
			rec(n.X)
		case *sql.Binary:
			rec(n.L)
			rec(n.R)
		case *sql.IsNull:
			rec(n.X)
		case *sql.In:
			rec(n.X)
		case *sql.Between:
			rec(n.X)
			rec(n.Lo)
			rec(n.Hi)
		case *sql.Cast:
			rec(n.X)
		case *sql.Case:
			for _, w := range n.Whens {
				rec(w.Cond)
				rec(w.Result)
			}
			rec(n.Else)
		}
	}
	rec(e)
	return found
}

func containsAgg(e sql.Expr) bool { return containsAggAST(e) }

// bindExpr binds an AST expression over the base relations. Aggregate
// calls are rejected (the aggregate path binds through bindOverAgg).
func (b *Binder) bindExpr(e sql.Expr, bd *binding) (BoundExpr, error) {
	return bindTree(e, func(e sql.Expr) (BoundExpr, bool, error) {
		switch x := e.(type) {
		case *sql.ColumnRef:
			rel, ci, err := bd.resolve(x.Table, x.Name)
			if err != nil {
				return nil, true, err
			}
			r := bd.rels[rel]
			pos, ok := r.colPos[ci]
			if !ok {
				return nil, true, fmt.Errorf("plan: internal error: column %s not collected for scan", x.Name)
			}
			tc := r.table.Columns[ci]
			return &BCol{
				Rel: rel, Idx: pos, Ordinal: -1,
				Name: tc.Name, Ty: tc.Type,
				Nullable: tc.Nullable || r.nullable,
			}, true, nil
		case *sql.FuncCall:
			if _, isAgg := aggFuncs[x.Name]; isAgg {
				return nil, true, fmt.Errorf("plan: aggregate %s not allowed here", x.Name)
			}
		}
		return nil, false, nil
	})
}

// leafBinder binds the nodes a scope resolves itself: column references,
// and — over an aggregate — whole expressions that name a group key or an
// aggregate call. ok=false leaves e to bindTree.
type leafBinder func(e sql.Expr) (be BoundExpr, ok bool, err error)

// bindTree binds an AST expression, consulting leaf at every node first,
// and types each node it builds. It is the one place expression typing
// happens, so every scope — base relations, aggregate output — admits the
// same shapes.
func bindTree(e sql.Expr, leaf leafBinder) (BoundExpr, error) {
	if be, ok, err := leaf(e); ok || err != nil {
		return be, err
	}
	rec := func(x sql.Expr) (BoundExpr, error) { return bindTree(x, leaf) }
	switch x := e.(type) {
	case *sql.Literal:
		return &BLit{Val: x.Val}, nil

	case *sql.Unary:
		inner, err := rec(x.X)
		if err != nil {
			return nil, err
		}
		return typeUnary(x.Op, inner)

	case *sql.Binary:
		l, err := rec(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rec(x.R)
		if err != nil {
			return nil, err
		}
		return typeBinary(x.Op, l, r)

	case *sql.IsNull:
		inner, err := rec(x.X)
		if err != nil {
			return nil, err
		}
		return &BIsNull{X: settle(inner, nullType), Not: x.Not}, nil

	case *sql.In:
		inner, err := rec(x.X)
		if err != nil {
			return nil, err
		}
		var list []col.Value
		for _, item := range x.List {
			lit, ok := item.(*sql.Literal)
			if !ok {
				return nil, fmt.Errorf("plan: IN list must contain literals, got %s", item)
			}
			v := lit.Val
			if !compatibleCmp(inner.Type(), v.Type) {
				return nil, fmt.Errorf("plan: IN list type %s incompatible with %s", v.Type, inner.Type())
			}
			list = append(list, v)
		}
		if inner.Type() == col.UNKNOWN {
			t := nullType
			for _, v := range list {
				if !v.Null {
					t = v.Type
					break
				}
			}
			inner = settle(inner, t)
		}
		return &BIn{X: inner, List: list, Not: x.Not}, nil

	case *sql.Between:
		inner, err := rec(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := rec(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rec(x.Hi)
		if err != nil {
			return nil, err
		}
		ge, err := typeBinary(">=", inner, lo)
		if err != nil {
			return nil, err
		}
		le, err := typeBinary("<=", cloneExpr(inner), hi)
		if err != nil {
			return nil, err
		}
		rng := &BBinary{Op: "AND", L: ge, R: le, Ty: col.BOOL}
		if x.Not {
			return &BUnary{Op: "NOT", X: rng, Ty: col.BOOL}, nil
		}
		return rng, nil

	case *sql.FuncCall:
		args := make([]BoundExpr, len(x.Args))
		for i, a := range x.Args {
			bound, err := rec(a)
			if err != nil {
				return nil, err
			}
			args[i] = bound
		}
		return typeFunc(x.Name, args)

	case *sql.Cast:
		inner, err := rec(x.X)
		if err != nil {
			return nil, err
		}
		if !castAllowed(inner.Type(), x.To) {
			return nil, fmt.Errorf("plan: cannot CAST %s to %s", inner.Type(), x.To)
		}
		return &BCast{X: settle(inner, x.To), To: x.To}, nil

	case *sql.Case:
		bc := &BCase{}
		var resTy col.Type = col.UNKNOWN
		for _, w := range x.Whens {
			cond, err := rec(w.Cond)
			if err != nil {
				return nil, err
			}
			if cond = settle(cond, col.BOOL); cond.Type() != col.BOOL {
				return nil, fmt.Errorf("plan: CASE condition must be boolean, got %s", cond.Type())
			}
			res, err := rec(w.Result)
			if err != nil {
				return nil, err
			}
			resTy, err = commonType(resTy, res.Type())
			if err != nil {
				return nil, err
			}
			bc.Whens = append(bc.Whens, BWhen{Cond: cond, Result: res})
		}
		if x.Else != nil {
			els, err := rec(x.Else)
			if err != nil {
				return nil, err
			}
			resTy, err = commonType(resTy, els.Type())
			if err != nil {
				return nil, err
			}
			bc.Else = els
		}
		if resTy == col.UNKNOWN {
			resTy = nullType
		}
		for i := range bc.Whens {
			bc.Whens[i].Result = settle(bc.Whens[i].Result, resTy)
		}
		if bc.Else != nil {
			bc.Else = settle(bc.Else, resTy)
		}
		bc.Ty = resTy
		return bc, nil

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

// nullType is the type a NULL takes where nothing around it implies one: a
// bare SELECT NULL column, GROUP BY NULL, COUNT(NULL)'s argument, NULL IS
// NULL. It is VARCHAR, the type a CASE whose arms are all NULL takes.
const nullType = col.STRING

// settle gives an UNKNOWN-typed expression — a NULL literal, or COALESCE
// over nothing but NULLs — the type t its context implies, so that no
// evaluator and no vector ever meets UNKNOWN. Typed expressions are
// returned unchanged.
func settle(e BoundExpr, t col.Type) BoundExpr {
	if e.Type() != col.UNKNOWN || t == col.UNKNOWN {
		return e
	}
	switch x := e.(type) {
	case *BLit:
		return &BLit{Val: col.NullValue(t)}
	case *BFunc:
		for i, a := range x.Args {
			x.Args[i] = settle(a, t)
		}
		x.Ty = t
	}
	return e
}

// settleRoot types an expression bound where its value is the output (a
// select item, a group key, an aggregate argument, a sort key).
func settleRoot(e BoundExpr) BoundExpr { return settle(e, nullType) }

// settleCond types an expression bound as a condition (WHERE, ON, HAVING)
// and checks it is boolean.
func settleCond(e BoundExpr, clause string) (BoundExpr, error) {
	if e = settle(e, col.BOOL); e.Type() != col.BOOL {
		return nil, fmt.Errorf("plan: %s must be boolean, got %s", clause, e.Type())
	}
	return e, nil
}

// scalarSig describes a built-in scalar function.
type scalarSig struct {
	minArgs, maxArgs int
	check            func(args []BoundExpr) (col.Type, error)
}

var scalarFuncs = map[string]scalarSig{
	"ABS": {1, 1, func(a []BoundExpr) (col.Type, error) {
		if !a[0].Type().Numeric() {
			return 0, fmt.Errorf("ABS requires a number")
		}
		return a[0].Type(), nil
	}},
	"LOWER":  {1, 1, wantStr(col.STRING)},
	"UPPER":  {1, 1, wantStr(col.STRING)},
	"LENGTH": {1, 1, wantStr(col.INT64)},
	"SUBSTR": {2, 3, func(a []BoundExpr) (col.Type, error) {
		if a[0].Type() != col.STRING {
			return 0, fmt.Errorf("SUBSTR requires a string")
		}
		for _, x := range a[1:] {
			if x.Type() != col.INT64 {
				return 0, fmt.Errorf("SUBSTR positions must be integers")
			}
		}
		return col.STRING, nil
	}},
	"CONCAT": {1, 8, func(a []BoundExpr) (col.Type, error) {
		for _, x := range a {
			if x.Type() != col.STRING {
				return 0, fmt.Errorf("CONCAT requires strings")
			}
		}
		return col.STRING, nil
	}},
	"COALESCE": {1, 8, func(a []BoundExpr) (col.Type, error) {
		t := col.UNKNOWN
		var err error
		for _, x := range a {
			t, err = commonType(t, x.Type())
			if err != nil {
				return 0, err
			}
		}
		return t, nil
	}},
	"YEAR":  {1, 1, wantDate(col.INT64)},
	"MONTH": {1, 1, wantDate(col.INT64)},
	"DAY":   {1, 1, wantDate(col.INT64)},
	"ROUND": {1, 2, func(a []BoundExpr) (col.Type, error) {
		if !a[0].Type().Numeric() {
			return 0, fmt.Errorf("ROUND requires a number")
		}
		if len(a) == 2 && a[1].Type() != col.INT64 {
			return 0, fmt.Errorf("ROUND precision must be an integer")
		}
		return col.FLOAT64, nil
	}},
	"FLOOR": {1, 1, wantNum(col.FLOAT64)},
	"CEIL":  {1, 1, wantNum(col.FLOAT64)},
}

func wantStr(out col.Type) func([]BoundExpr) (col.Type, error) {
	return func(a []BoundExpr) (col.Type, error) {
		if a[0].Type() != col.STRING {
			return 0, fmt.Errorf("function requires a string, got %s", a[0].Type())
		}
		return out, nil
	}
}

func wantNum(out col.Type) func([]BoundExpr) (col.Type, error) {
	return func(a []BoundExpr) (col.Type, error) {
		if !a[0].Type().Numeric() {
			return 0, fmt.Errorf("function requires a number, got %s", a[0].Type())
		}
		return out, nil
	}
}

func wantDate(out col.Type) func([]BoundExpr) (col.Type, error) {
	return func(a []BoundExpr) (col.Type, error) {
		if a[0].Type() != col.DATE && a[0].Type() != col.TIMESTAMP {
			return 0, fmt.Errorf("function requires a date, got %s", a[0].Type())
		}
		return out, nil
	}
}

// typeFunc type-checks a scalar function call and constructs the node.
func typeFunc(name string, args []BoundExpr) (BoundExpr, error) {
	if _, isAgg := aggFuncs[name]; isAgg {
		return nil, fmt.Errorf("plan: internal error: aggregate %s was not collected", name)
	}
	sig, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown function %s", name)
	}
	if len(args) < sig.minArgs || len(args) > sig.maxArgs {
		return nil, fmt.Errorf("plan: %s takes %d..%d arguments, got %d", name, sig.minArgs, sig.maxArgs, len(args))
	}
	ty, err := sig.check(args)
	if err != nil {
		return nil, fmt.Errorf("plan: %v", err)
	}
	f := &BFunc{Name: name, Args: args, Ty: ty}
	if name == "COALESCE" && ty != col.UNKNOWN {
		for i, a := range args {
			args[i] = settle(a, ty)
		}
	}
	return f, nil
}

// typeUnary type-checks NOT and unary minus. A NULL operand of minus is
// typed BIGINT, the type NULL + NULL takes.
func typeUnary(op string, x BoundExpr) (BoundExpr, error) {
	if op == "NOT" {
		if x = settle(x, col.BOOL); x.Type() != col.BOOL {
			return nil, fmt.Errorf("plan: NOT requires a boolean, got %s", x.Type())
		}
		return &BUnary{Op: "NOT", X: x, Ty: col.BOOL}, nil
	}
	if x = settle(x, col.INT64); !x.Type().Numeric() {
		return nil, fmt.Errorf("plan: unary - requires a number, got %s", x.Type())
	}
	return &BUnary{Op: "-", X: x, Ty: x.Type()}, nil
}

// typeBinary type-checks a binary operator and constructs the node.
// Division always yields FLOAT64; DATE ± INT64 yields DATE. A NULL operand
// takes the type the operator and the other operand imply.
func typeBinary(op string, l, r BoundExpr) (BoundExpr, error) {
	lt, rt := l.Type(), r.Type()
	node := func(ty, lty, rty col.Type) (BoundExpr, error) {
		return &BBinary{Op: op, L: settle(l, lty), R: settle(r, rty), Ty: ty}, nil
	}
	switch op {
	case "AND", "OR":
		if (lt != col.BOOL && lt != col.UNKNOWN) || (rt != col.BOOL && rt != col.UNKNOWN) {
			return nil, fmt.Errorf("plan: %s requires booleans, got %s and %s", op, lt, rt)
		}
		return node(col.BOOL, col.BOOL, col.BOOL)
	case "=", "<>", "<", "<=", ">", ">=":
		if !compatibleCmp(lt, rt) {
			return nil, fmt.Errorf("plan: cannot compare %s with %s", lt, rt)
		}
		if lt == col.UNKNOWN && rt == col.UNKNOWN {
			return node(col.BOOL, nullType, nullType)
		}
		return node(col.BOOL, rt, lt)
	case "LIKE":
		if (lt != col.STRING && lt != col.UNKNOWN) || (rt != col.STRING && rt != col.UNKNOWN) {
			return nil, fmt.Errorf("plan: LIKE requires strings, got %s and %s", lt, rt)
		}
		return node(col.BOOL, col.STRING, col.STRING)
	case "+", "-":
		if (lt == col.DATE || lt == col.TIMESTAMP) && (rt == col.INT64 || rt == col.UNKNOWN) {
			return node(lt, lt, col.INT64)
		}
		fallthrough
	case "*":
		if !numericOrUnknown(lt) || !numericOrUnknown(rt) {
			return nil, fmt.Errorf("plan: %s requires numbers, got %s and %s", op, lt, rt)
		}
		ty := col.INT64
		if lt == col.FLOAT64 || rt == col.FLOAT64 {
			ty = col.FLOAT64
		}
		return node(ty, ty, ty)
	case "/":
		if !numericOrUnknown(lt) || !numericOrUnknown(rt) {
			return nil, fmt.Errorf("plan: / requires numbers, got %s and %s", lt, rt)
		}
		return node(col.FLOAT64, col.FLOAT64, col.FLOAT64)
	case "%":
		if (lt != col.INT64 && lt != col.UNKNOWN) || (rt != col.INT64 && rt != col.UNKNOWN) {
			return nil, fmt.Errorf("plan: %% requires integers, got %s and %s", lt, rt)
		}
		return node(col.INT64, col.INT64, col.INT64)
	default:
		return nil, fmt.Errorf("plan: unknown operator %s", op)
	}
}

func numericOrUnknown(t col.Type) bool { return t.Numeric() || t == col.UNKNOWN }

// compatibleCmp reports whether two types may be compared.
func compatibleCmp(a, b col.Type) bool {
	if a == col.UNKNOWN || b == col.UNKNOWN {
		return true // NULL literal compares with anything
	}
	if a == b {
		return true
	}
	return a.Numeric() && b.Numeric()
}

// commonType merges two types for CASE/COALESCE results.
func commonType(a, b col.Type) (col.Type, error) {
	if a == col.UNKNOWN {
		return b, nil
	}
	if b == col.UNKNOWN || a == b {
		return a, nil
	}
	if a.Numeric() && b.Numeric() {
		return col.FLOAT64, nil
	}
	return 0, fmt.Errorf("plan: incompatible branch types %s and %s", a, b)
}

// castAllowed whitelists CAST conversions.
func castAllowed(from, to col.Type) bool {
	if from == to || from == col.UNKNOWN {
		return true
	}
	switch {
	case to == col.STRING:
		return true
	case from.Numeric() && to.Numeric():
		return true
	case from == col.STRING && (to.Numeric() || to == col.DATE || to == col.TIMESTAMP || to == col.BOOL):
		return true
	case from == col.DATE && to == col.TIMESTAMP,
		from == col.TIMESTAMP && to == col.DATE:
		return true
	case from == col.BOOL && to == col.INT64:
		return true
	default:
		return false
	}
}

// canonical returns the canonical string of an AST expression, used to
// match GROUP BY keys with select items.
func canonical(e sql.Expr) string { return strings.ToUpper(e.String()) }
