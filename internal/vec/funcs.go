package vec

import (
	"math"
	"strings"
	"time"

	"repro/internal/col"
	"repro/internal/plan"
)

// This file holds the wide-coverage value kernels: literals, CASE WHEN and
// the scalar function set, with SQL's NULL propagation and the binder's
// coercions (an INT64 result widens into a FLOAT64 CASE or COALESCE).

// compileLit broadcasts a literal. The binder types every literal, NULL
// included.
func (c *compiler) compileLit(x *plan.BLit) (valExpr, error) {
	if t := x.Val.Type; columnType(t) {
		return &constNode{k: x.Val, ty: t, null: x.Val.Null, slot: c.vecSlot(), mslot: c.vecSlot()}, nil
	}
	return nil, unsupported(x)
}

// constNode is a literal broadcast over the batch.
type constNode struct {
	k     col.Value
	ty    col.Type
	null  bool
	slot  int
	mslot int
}

func (n *constNode) typ() col.Type { return n.ty }

func (n *constNode) eval(ctx *evalCtx) *col.Vector {
	nr := ctx.b.N
	out := ctx.s.vecBuf(n.slot, n.ty, nr)
	if n.null {
		m := ctx.s.maskBuf(n.mslot, nr)
		for i := range m {
			m[i] = false
		}
		out.Valid = m
		zeroAll(out)
		return out
	}
	switch n.ty {
	case col.BOOL:
		v := n.k.B
		for i := range out.Bools {
			out.Bools[i] = v
		}
	case col.INT64, col.DATE, col.TIMESTAMP:
		v := n.k.AsInt()
		for i := range out.Ints {
			out.Ints[i] = v
		}
	case col.FLOAT64:
		v := n.k.AsFloat()
		for i := range out.Floats {
			out.Floats[i] = v
		}
	case col.STRING:
		v := n.k.S
		for i := range out.Strs {
			out.Strs[i] = v
		}
	}
	return out
}

// coercibleVal reports whether a compiled result can be written into a
// vector of type ty under setCoerced's rules: same type, INT64 widening
// into FLOAT64, or a NULL literal (which only ever writes the mask).
func coercibleVal(v valExpr, ty col.Type) bool {
	if cn, ok := v.(*constNode); ok && cn.null {
		return true
	}
	t := v.typ()
	return t == ty || (ty == col.FLOAT64 && t == col.INT64)
}

// compileCase builds the CASE WHEN kernel: conditions compile as predicate
// trees (evaluated with selection vectors over the not-yet-decided rows),
// results as value kernels copied at the decided positions.
func (c *compiler) compileCase(x *plan.BCase) (valExpr, error) {
	if !columnType(x.Ty) {
		return nil, unsupported(x)
	}
	n := &caseNode{ty: x.Ty}
	for _, w := range x.Whens {
		cond, err := c.compilePred(w.Cond)
		if err != nil {
			return nil, err
		}
		res, err := c.compileVal(w.Result)
		if err != nil {
			return nil, err
		}
		if !coercibleVal(res, x.Ty) {
			return nil, unsupported(x)
		}
		n.whens = append(n.whens, caseWhen{cond: cond, result: res})
	}
	if x.Else != nil {
		e, err := c.compileVal(x.Else)
		if err != nil {
			return nil, err
		}
		if !coercibleVal(e, x.Ty) {
			return nil, unsupported(x)
		}
		n.els = e
	}
	n.slot, n.mslot = c.vecSlot(), c.vecSlot()
	n.rem = [2]int{c.selSlot(), c.selSlot()}
	return n, nil
}

type caseWhen struct {
	cond   pred
	result valExpr
}

// caseNode evaluates CASE WHEN with selection vectors: each condition's
// selTrue runs only over the rows no earlier arm decided (two ping-pong
// "remaining" buffers), the matching arm's result is copied at exactly
// those positions, and the leftover rows take ELSE (or NULL). Rows where a
// condition is NULL fall through like FALSE.
//
// Every condition and result is evaluated over the whole batch, even when
// no row of the batch is left for it or takes it: a CAST of a string that
// does not parse fails the query whichever arm each row takes, so whether
// a query fails never depends on where batch boundaries fall.
type caseNode struct {
	whens []caseWhen
	els   valExpr // nil means NULL
	ty    col.Type
	slot  int
	mslot int
	rem   [2]int
}

func (n *caseNode) typ() col.Type { return n.ty }

func (n *caseNode) eval(ctx *evalCtx) *col.Vector {
	nr := ctx.b.N
	out := ctx.s.vecBuf(n.slot, n.ty, nr)
	m := ctx.s.maskBuf(n.mslot, nr)
	for i := range m {
		m[i] = true
	}
	out.Valid = m
	rem := append(ctx.s.selBuf(n.rem[0]), ctx.s.identity(nr)...)
	rem = ctx.s.putSel(n.rem[0], rem)
	cur := 0
	for _, w := range n.whens {
		t := w.cond.selTrue(ctx, rem)
		rv := w.result.eval(ctx)
		if len(t) == 0 {
			continue
		}
		for _, i := range t {
			setCoercedAt(out, i, rv, n.ty)
		}
		next := diffInto(ctx.s.selBuf(n.rem[1-cur]), rem, t)
		rem = ctx.s.putSel(n.rem[1-cur], next)
		cur = 1 - cur
	}
	if n.els != nil {
		ev := n.els.eval(ctx)
		for _, i := range rem {
			setCoercedAt(out, i, ev, n.ty)
		}
	} else {
		for _, i := range rem {
			m[i] = false
			zeroAt(out, i)
		}
	}
	return out
}

// diffInto appends a \ b into buf; both are ascending and b ⊆ a.
func diffInto(buf, a, b []int) []int {
	j := 0
	for _, v := range a {
		if j < len(b) && b[j] == v {
			j++
			continue
		}
		buf = append(buf, v)
	}
	return buf
}

// setCoercedAt writes src[i] into a vector whose mask is already
// materialized: NULL source nulls the row, INT64 widens into a
// FLOAT64 destination, anything else copies.
func setCoercedAt(dst *col.Vector, i int, src *col.Vector, ty col.Type) {
	if src.IsNull(i) {
		dst.Valid[i] = false
		zeroAt(dst, i)
		return
	}
	if ty == col.FLOAT64 && src.Type == col.INT64 {
		dst.Floats[i] = float64(src.Ints[i])
		dst.Valid[i] = true
		return
	}
	dst.Set(i, src.Value(i))
}

// zeroAt resets row i to the type's zero so reused scratch never leaks a
// stale value into a NULL position.
func zeroAt(v *col.Vector, i int) {
	switch v.Type {
	case col.BOOL:
		v.Bools[i] = false
	case col.INT64, col.DATE, col.TIMESTAMP:
		v.Ints[i] = 0
	case col.FLOAT64:
		v.Floats[i] = 0
	case col.STRING:
		v.Strs[i] = ""
	}
}

func zeroAll(v *col.Vector) {
	for i := 0; i < v.N; i++ {
		zeroAt(v, i)
	}
}

// compileFunc builds a scalar-function kernel for the functions the binder
// admits, with the argument types it checks.
func (c *compiler) compileFunc(x *plan.BFunc) (valExpr, error) {
	args := make([]valExpr, len(x.Args))
	for i, a := range x.Args {
		v, err := c.compileVal(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	at := func(i int) col.Type {
		if i < len(args) {
			return args[i].typ()
		}
		return col.UNKNOWN
	}
	switch x.Name {
	case "ABS":
		if len(args) != 1 || (at(0) != col.INT64 && at(0) != col.FLOAT64) || x.Ty != at(0) {
			return nil, unsupported(x)
		}
	case "LOWER", "UPPER":
		if len(args) != 1 || at(0) != col.STRING || x.Ty != col.STRING {
			return nil, unsupported(x)
		}
	case "LENGTH":
		if len(args) != 1 || at(0) != col.STRING || x.Ty != col.INT64 {
			return nil, unsupported(x)
		}
	case "SUBSTR":
		if len(args) < 2 || len(args) > 3 || at(0) != col.STRING || at(1) != col.INT64 || x.Ty != col.STRING {
			return nil, unsupported(x)
		}
		if len(args) == 3 && at(2) != col.INT64 {
			return nil, unsupported(x)
		}
	case "CONCAT":
		if len(args) == 0 || x.Ty != col.STRING {
			return nil, unsupported(x)
		}
		for i := range args {
			if at(i) != col.STRING {
				return nil, unsupported(x)
			}
		}
	case "COALESCE":
		if !columnType(x.Ty) || len(args) == 0 {
			return nil, unsupported(x)
		}
		for _, a := range args {
			if !coercibleVal(a, x.Ty) {
				return nil, unsupported(x)
			}
		}
	case "YEAR", "MONTH", "DAY":
		if len(args) != 1 || (at(0) != col.DATE && at(0) != col.TIMESTAMP) || x.Ty != col.INT64 {
			return nil, unsupported(x)
		}
	case "ROUND":
		if len(args) < 1 || len(args) > 2 || !at(0).Numeric() || x.Ty != col.FLOAT64 {
			return nil, unsupported(x)
		}
		if len(args) == 2 && at(1) != col.INT64 {
			return nil, unsupported(x)
		}
	case "FLOOR", "CEIL":
		if len(args) != 1 || !at(0).Numeric() || x.Ty != col.FLOAT64 {
			return nil, unsupported(x)
		}
	default:
		return nil, unsupported(x)
	}
	return &funcNode{name: x.Name, args: args, ty: x.Ty, slot: c.vecSlot(), mslot: c.vecSlot()}, nil
}

// funcNode is a scalar function call. Except for COALESCE, any NULL
// argument nulls the row; values are computed only for surviving rows.
type funcNode struct {
	name  string
	args  []valExpr
	ty    col.Type
	slot  int
	mslot int
}

func (n *funcNode) typ() col.Type { return n.ty }

func (n *funcNode) eval(ctx *evalCtx) *col.Vector {
	nr := ctx.b.N
	argv := make([]*col.Vector, len(n.args))
	for i, a := range n.args {
		argv[i] = a.eval(ctx)
	}
	out := ctx.s.vecBuf(n.slot, n.ty, nr)
	if n.name == "COALESCE" {
		m := ctx.s.maskBuf(n.mslot, nr)
		for i := range m {
			m[i] = true
		}
		out.Valid = m
		for i := 0; i < nr; i++ {
			set := false
			for _, a := range argv {
				if !a.IsNull(i) {
					setCoercedAt(out, i, a, n.ty)
					set = true
					break
				}
			}
			if !set {
				m[i] = false
				zeroAt(out, i)
			}
		}
		return out
	}

	// Conjoin argument validity; nil when no argument carries a mask.
	var m []bool
	for _, a := range argv {
		if a.Valid != nil {
			m = ctx.s.maskBuf(n.mslot, nr)
			for i := 0; i < nr; i++ {
				ok := true
				for _, av := range argv {
					if av.Valid != nil && !av.Valid[i] {
						ok = false
						break
					}
				}
				m[i] = ok
			}
			out.Valid = m
			break
		}
	}
	skip := func(i int) bool {
		if m != nil && !m[i] {
			zeroAt(out, i)
			return true
		}
		return false
	}

	switch n.name {
	case "ABS":
		if n.ty == col.FLOAT64 {
			in := argv[0].Floats
			for i := 0; i < nr; i++ {
				if skip(i) {
					continue
				}
				out.Floats[i] = math.Abs(in[i])
			}
		} else {
			in := argv[0].Ints
			for i := 0; i < nr; i++ {
				if skip(i) {
					continue
				}
				v := in[i]
				if v < 0 {
					v = -v
				}
				out.Ints[i] = v
			}
		}
	case "LOWER":
		in := argv[0].Strs
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			out.Strs[i] = strings.ToLower(in[i])
		}
	case "UPPER":
		in := argv[0].Strs
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			out.Strs[i] = strings.ToUpper(in[i])
		}
	case "LENGTH":
		in := argv[0].Strs
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			out.Ints[i] = int64(len(in[i]))
		}
	case "SUBSTR":
		in, starts := argv[0].Strs, argv[1].Ints
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			length := int64(math.MaxInt32)
			if len(argv) > 2 {
				length = argv[2].Ints[i]
			}
			out.Strs[i] = substrOf(in[i], starts[i], length)
		}
	case "CONCAT":
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			var sb strings.Builder
			for _, a := range argv {
				sb.WriteString(a.Strs[i])
			}
			out.Strs[i] = sb.String()
		}
	case "YEAR", "MONTH", "DAY":
		in := argv[0].Ints
		isTS := argv[0].Type == col.TIMESTAMP
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			var t time.Time
			if isTS {
				t = time.UnixMicro(in[i]).UTC()
			} else {
				t = col.DaysToDate(in[i])
			}
			switch n.name {
			case "YEAR":
				out.Ints[i] = int64(t.Year())
			case "MONTH":
				out.Ints[i] = int64(t.Month())
			default:
				out.Ints[i] = int64(t.Day())
			}
		}
	case "ROUND":
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			var prec int64
			if len(argv) > 1 {
				prec = argv[1].Ints[i]
			}
			mult := math.Pow(10, float64(prec))
			out.Floats[i] = math.Round(numAt(argv[0], i)*mult) / mult
		}
	case "FLOOR":
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			out.Floats[i] = math.Floor(numAt(argv[0], i))
		}
	case "CEIL":
		for i := 0; i < nr; i++ {
			if skip(i) {
				continue
			}
			out.Floats[i] = math.Ceil(numAt(argv[0], i))
		}
	}
	return out
}

// numAt reads a numeric row as float64.
func numAt(v *col.Vector, i int) float64 {
	if v.Type == col.FLOAT64 {
		return v.Floats[i]
	}
	return float64(v.Ints[i])
}

// substrOf is SQL's 1-based SUBSTR.
func substrOf(s string, start, length int64) string {
	if start < 1 {
		start = 1
	}
	from := int(start - 1)
	if from >= len(s) {
		return ""
	}
	to := len(s)
	if length < int64(to-from) {
		to = from + int(length)
	}
	if to < from {
		to = from
	}
	return s[from:to]
}
