package vec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/col"
	"repro/internal/plan"
)

// compileVal translates a bound scalar expression into a value kernel tree.
func (c *compiler) compileVal(e plan.BoundExpr) (valExpr, error) {
	switch x := e.(type) {
	case *plan.BCol:
		if columnType(x.Ty) {
			c.ref(x.Ordinal, x.Ty)
			if x.Ty == col.STRING {
				c.strUse(x.Ordinal)
			}
			return &colRef{ord: x.Ordinal, ty: x.Ty}, nil
		}

	case *plan.BLit:
		return c.compileLit(x)

	case *plan.BCase:
		return c.compileCase(x)

	case *plan.BFunc:
		return c.compileFunc(x)

	case *plan.BCast:
		return c.compileCast(x)

	case *plan.BUnary:
		switch x.Op {
		case "NOT":
			return c.compilePredVal(e)
		case "-":
			inner, err := c.compileVal(x.X)
			if err != nil {
				return nil, err
			}
			if t := inner.typ(); t == col.INT64 || t == col.FLOAT64 {
				return &negNode{x: inner, ty: t, slot: c.vecSlot()}, nil
			}
		}

	case *plan.BBinary:
		switch x.Op {
		case "+", "-", "*", "/", "%":
			return c.compileArith(x)
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
			return c.compilePredVal(e)
		}

	case *plan.BIsNull, *plan.BIn:
		return c.compilePredVal(e)
	}
	return nil, unsupported(e)
}

// litScalar reports e as a non-null literal usable as a kernel scalar.
func litScalar(e plan.BoundExpr) (col.Value, bool) {
	if l, ok := e.(*plan.BLit); ok && !l.Val.Null {
		return l.Val, true
	}
	return col.Value{}, false
}

// compileArith builds an arithmetic kernel for +, -, *, / and %: the result
// type decides the loop (INT64 keeps + - * % with x%0 = NULL, FLOAT64
// widens operands and keeps + - * / with x/0 = NULL, DATE/TIMESTAMP keep
// + -), and a literal operand becomes a scalar specialization instead of
// a broadcast vector. When both operands are literals the left one is
// broadcast.
func (c *compiler) compileArith(x *plan.BBinary) (valExpr, error) {
	side := func(e plan.BoundExpr) (valExpr, col.Value, error) {
		if k, ok := litScalar(e); ok {
			return nil, k, nil
		}
		v, err := c.compileVal(e)
		return v, col.Value{}, err
	}
	lv, lk, err := side(x.L)
	if err != nil {
		return nil, err
	}
	rv, rk, err := side(x.R)
	if err != nil {
		return nil, err
	}
	if lv == nil && rv == nil {
		if lv, err = c.compileVal(x.L); err != nil {
			return nil, err
		}
	}

	intTyped := func(v valExpr, k col.Value) bool {
		t := k.Type
		if v != nil {
			t = v.typ()
		}
		switch t {
		case col.INT64, col.DATE, col.TIMESTAMP:
			return true
		}
		return false
	}
	numTyped := func(v valExpr, k col.Value) bool {
		if v != nil {
			return v.typ().Numeric()
		}
		return k.Type.Numeric()
	}

	switch {
	case (x.Ty == col.INT64 && x.Op != "/") || ((x.Ty == col.DATE || x.Ty == col.TIMESTAMP) && (x.Op == "+" || x.Op == "-")):
		if !intTyped(lv, lk) || !intTyped(rv, rk) {
			break
		}
		a := &arithInt{op: x.Op, ty: x.Ty, l: lv, r: rv, slot: c.vecSlot(), mslot: c.vecSlot()}
		if lv == nil {
			a.lk = lk.I
		}
		if rv == nil {
			a.rk = rk.I
		}
		return a, nil

	case x.Ty == col.FLOAT64 && x.Op != "%":
		if !numTyped(lv, lk) || !numTyped(rv, rk) {
			break
		}
		widen := func(v valExpr) valExpr {
			if v != nil && v.typ() == col.INT64 {
				return &castIF{x: v, slot: c.vecSlot()}
			}
			return v
		}
		a := &arithFloat{op: x.Op, l: widen(lv), r: widen(rv), slot: c.vecSlot(), mslot: c.vecSlot()}
		if lv == nil {
			a.lk = lk.AsFloat()
		}
		if rv == nil {
			a.rk = rk.AsFloat()
		}
		return a, nil
	}
	return nil, unsupported(x)
}

// compilePredVal compiles a predicate in value position (a comparison,
// AND/OR/NOT, LIKE, IS NULL or IN whose result is selected, cast or fed to
// a function) into a BOOL vector.
func (c *compiler) compilePredVal(e plan.BoundExpr) (valExpr, error) {
	p, err := c.compilePred(e)
	if err != nil {
		return nil, err
	}
	return &predVal{p: p, slot: c.vecSlot(), mslot: c.vecSlot()}, nil
}

// predVal turns a predicate's TRUE and FALSE sets into a BOOL vector: TRUE
// rows read true, FALSE rows false, and the rows in neither set are NULL.
type predVal struct {
	p     pred
	slot  int
	mslot int
}

func (n *predVal) typ() col.Type { return col.BOOL }

func (n *predVal) eval(ctx *evalCtx) *col.Vector {
	nr := ctx.b.N
	out := ctx.s.vecBuf(n.slot, col.BOOL, nr)
	clear(out.Bools)
	all := ctx.s.identity(nr)
	t := n.p.selTrue(ctx, all)
	for _, i := range t {
		out.Bools[i] = true
	}
	nt := len(t)
	// selFalse may reuse the buffer t lives in: t is fully read above.
	f := n.p.selFalse(ctx, all)
	if nt+len(f) == nr {
		return out
	}
	m := ctx.s.maskBuf(n.mslot, nr)
	copy(m, out.Bools)
	for _, i := range f {
		m[i] = true
	}
	out.Valid = m
	return out
}

// compileCast builds the CAST kernel for every conversion the binder
// admits. A cast to the operand's own type is the operand itself.
func (c *compiler) compileCast(x *plan.BCast) (valExpr, error) {
	inner, err := c.compileVal(x.X)
	if err != nil {
		return nil, err
	}
	from, to := inner.typ(), x.To
	switch {
	case from == to:
		return inner, nil
	case from == col.INT64 && to == col.FLOAT64:
		return &castIF{x: inner, slot: c.vecSlot()}, nil
	case to == col.STRING,
		from == col.FLOAT64 && to == col.INT64,
		from == col.BOOL && to == col.INT64,
		from == col.DATE && to == col.TIMESTAMP,
		from == col.TIMESTAMP && to == col.DATE:
		return &castNode{x: inner, to: to, slot: c.vecSlot()}, nil
	case from == col.STRING:
		switch to {
		case col.INT64, col.FLOAT64, col.DATE, col.TIMESTAMP, col.BOOL:
			c.parses = true
			return &castNode{x: inner, to: to, slot: c.vecSlot()}, nil
		}
	}
	return nil, unsupported(x)
}

// castNode converts between column types; castIF handles INT64 → FLOAT64.
// A string that does not parse as the target type fails the run.
type castNode struct {
	x    valExpr
	to   col.Type
	slot int
}

func (n *castNode) typ() col.Type { return n.to }

func (n *castNode) eval(ctx *evalCtx) *col.Vector {
	in := n.x.eval(ctx)
	out := ctx.s.vecBuf(n.slot, n.to, in.N)
	out.Valid = in.Valid
	zeroAll(out)
	valid := func(i int) bool { return in.Valid == nil || in.Valid[i] }
	switch {
	case n.to == col.STRING:
		for i := 0; i < in.N; i++ {
			if valid(i) {
				out.Strs[i] = in.Value(i).String()
			}
		}
	case in.Type == col.FLOAT64: // to INT64
		for i, f := range in.Floats {
			if valid(i) {
				out.Ints[i] = int64(f)
			}
		}
	case in.Type == col.BOOL: // to INT64
		for i, b := range in.Bools {
			if valid(i) && b {
				out.Ints[i] = 1
			}
		}
	case in.Type == col.DATE: // to TIMESTAMP
		for i, d := range in.Ints {
			if valid(i) {
				out.Ints[i] = d * 86400 * 1e6
			}
		}
	case in.Type == col.TIMESTAMP: // to DATE
		for i, ts := range in.Ints {
			if valid(i) {
				out.Ints[i] = ts / (86400 * 1e6)
			}
		}
	default: // STRING to INT64, FLOAT64, DATE, TIMESTAMP or BOOL
		for i, s := range in.Strs {
			if !valid(i) {
				continue
			}
			v, err := parseAs(s, n.to)
			if err != nil {
				ctx.fail(err)
				return out
			}
			switch n.to {
			case col.FLOAT64:
				out.Floats[i] = v.F
			case col.BOOL:
				out.Bools[i] = v.B
			default:
				out.Ints[i] = v.I
			}
		}
	}
	return out
}

// parseAs parses a string as a CAST target: surrounding spaces are
// ignored, and BOOLEAN accepts true/t/1 and false/f/0 in any case.
func parseAs(s string, to col.Type) (col.Value, error) {
	t := strings.TrimSpace(s)
	switch to {
	case col.INT64:
		if n, err := strconv.ParseInt(t, 10, 64); err == nil {
			return col.Int(n), nil
		}
	case col.FLOAT64:
		if f, err := strconv.ParseFloat(t, 64); err == nil {
			return col.Float(f), nil
		}
	case col.DATE:
		if d, err := col.ParseDate(t); err == nil {
			return col.Date(d), nil
		}
	case col.TIMESTAMP:
		if ts, err := col.ParseTimestamp(t); err == nil {
			return col.Timestamp(ts), nil
		}
	case col.BOOL:
		switch strings.ToLower(t) {
		case "true", "t", "1":
			return col.Bool(true), nil
		case "false", "f", "0":
			return col.Bool(false), nil
		}
	}
	return col.Value{}, fmt.Errorf("vec: cannot CAST %q to %s", s, to)
}

// colRef yields the batch's own column vector, or, for a dictionary-coded
// column, the run's materialization of it.
type colRef struct {
	ord int
	ty  col.Type
}

func (r *colRef) typ() col.Type { return r.ty }

func (r *colRef) eval(ctx *evalCtx) *col.Vector {
	if v := ctx.dict(r.ord); v != nil {
		return ctx.s.strings(r.ord, v)
	}
	return ctx.b.Vecs[r.ord]
}

// castIF widens INT64 to FLOAT64.
type castIF struct {
	x    valExpr
	slot int
}

func (n *castIF) typ() col.Type { return col.FLOAT64 }

func (n *castIF) eval(ctx *evalCtx) *col.Vector {
	in := n.x.eval(ctx)
	out := ctx.s.vecBuf(n.slot, col.FLOAT64, in.N)
	for i, v := range in.Ints {
		out.Floats[i] = float64(v)
	}
	out.Valid = in.Valid
	return out
}

// negNode is unary minus over INT64 or FLOAT64.
type negNode struct {
	x    valExpr
	ty   col.Type
	slot int
}

func (n *negNode) typ() col.Type { return n.ty }

func (n *negNode) eval(ctx *evalCtx) *col.Vector {
	in := n.x.eval(ctx)
	out := ctx.s.vecBuf(n.slot, n.ty, in.N)
	if n.ty == col.INT64 {
		for i, v := range in.Ints {
			out.Ints[i] = -v
		}
	} else {
		for i, v := range in.Floats {
			out.Floats[i] = -v
		}
	}
	out.Valid = in.Valid
	return out
}

// combineMasks computes the conjunction of the operand validity masks.
// owned reports whether the returned mask is private to the node (safe to
// mutate); an aliased single-operand mask is not.
func combineMasks(ctx *evalCtx, slot int, lv, rv *col.Vector, n int) (mask []bool, owned bool) {
	var lm, rm []bool
	if lv != nil {
		lm = lv.Valid
	}
	if rv != nil {
		rm = rv.Valid
	}
	switch {
	case lm == nil && rm == nil:
		return nil, false
	case lm == nil:
		return rm, false
	case rm == nil:
		return lm, false
	}
	m := ctx.s.maskBuf(slot, n)
	for i := 0; i < n; i++ {
		m[i] = lm[i] && rm[i]
	}
	return m, true
}

// ownMask upgrades out.Valid to a mutable mask (all-true when it was nil),
// used when / or % must null individual rows.
func ownMask(ctx *evalCtx, slot int, out *col.Vector, n int) []bool {
	m := ctx.s.maskBuf(slot, n)
	if out.Valid == nil {
		for i := 0; i < n; i++ {
			m[i] = true
		}
	} else {
		copy(m, out.Valid) // no-op when out.Valid already is this buffer
	}
	out.Valid = m
	return m
}

// arithInt is + - * % with an INT64 (or DATE/TIMESTAMP for + -) result.
// A nil l or r marks the scalar side.
type arithInt struct {
	op     string
	ty     col.Type
	l, r   valExpr
	lk, rk int64
	slot   int
	mslot  int
}

func (a *arithInt) typ() col.Type { return a.ty }

func (a *arithInt) eval(ctx *evalCtx) *col.Vector {
	n := ctx.b.N
	out := ctx.s.vecBuf(a.slot, a.ty, n)
	var lv, rv *col.Vector
	var ls, rs []int64
	if a.l != nil {
		lv = a.l.eval(ctx)
		ls = lv.Ints
	}
	if a.r != nil {
		rv = a.r.eval(ctx)
		rs = rv.Ints
	}
	mask, owned := combineMasks(ctx, a.mslot, lv, rv, n)
	out.Valid = mask
	o := out.Ints
	switch a.op {
	case "+":
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				o[i] = a.lk + rs[i]
			}
		case rs == nil:
			for i := 0; i < n; i++ {
				o[i] = ls[i] + a.rk
			}
		default:
			for i := 0; i < n; i++ {
				o[i] = ls[i] + rs[i]
			}
		}
	case "-":
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				o[i] = a.lk - rs[i]
			}
		case rs == nil:
			for i := 0; i < n; i++ {
				o[i] = ls[i] - a.rk
			}
		default:
			for i := 0; i < n; i++ {
				o[i] = ls[i] - rs[i]
			}
		}
	case "*":
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				o[i] = a.lk * rs[i]
			}
		case rs == nil:
			for i := 0; i < n; i++ {
				o[i] = ls[i] * a.rk
			}
		default:
			for i := 0; i < n; i++ {
				o[i] = ls[i] * rs[i]
			}
		}
	case "%":
		// x % 0 is NULL, keeping execution total.
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				if rs[i] == 0 {
					if !owned {
						ownMask(ctx, a.mslot, out, n)
						owned = true
					}
					out.Valid[i] = false
					continue
				}
				o[i] = a.lk % rs[i]
			}
		case rs == nil:
			if a.rk == 0 {
				m := ctx.s.maskBuf(a.mslot, n)
				for i := 0; i < n; i++ {
					m[i] = false
				}
				out.Valid = m
				return out
			}
			for i := 0; i < n; i++ {
				o[i] = ls[i] % a.rk
			}
		default:
			for i := 0; i < n; i++ {
				if rs[i] == 0 {
					if !owned {
						ownMask(ctx, a.mslot, out, n)
						owned = true
					}
					out.Valid[i] = false
					continue
				}
				o[i] = ls[i] % rs[i]
			}
		}
	}
	return out
}

// arithFloat is + - * / with a FLOAT64 result; integer operands are widened
// by castIF nodes inserted at compile time.
type arithFloat struct {
	op     string
	l, r   valExpr
	lk, rk float64
	slot   int
	mslot  int
}

func (a *arithFloat) typ() col.Type { return col.FLOAT64 }

func (a *arithFloat) eval(ctx *evalCtx) *col.Vector {
	n := ctx.b.N
	out := ctx.s.vecBuf(a.slot, col.FLOAT64, n)
	var lv, rv *col.Vector
	var ls, rs []float64
	if a.l != nil {
		lv = a.l.eval(ctx)
		ls = lv.Floats
	}
	if a.r != nil {
		rv = a.r.eval(ctx)
		rs = rv.Floats
	}
	mask, owned := combineMasks(ctx, a.mslot, lv, rv, n)
	out.Valid = mask
	o := out.Floats
	switch a.op {
	case "+":
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				o[i] = a.lk + rs[i]
			}
		case rs == nil:
			for i := 0; i < n; i++ {
				o[i] = ls[i] + a.rk
			}
		default:
			for i := 0; i < n; i++ {
				o[i] = ls[i] + rs[i]
			}
		}
	case "-":
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				o[i] = a.lk - rs[i]
			}
		case rs == nil:
			for i := 0; i < n; i++ {
				o[i] = ls[i] - a.rk
			}
		default:
			for i := 0; i < n; i++ {
				o[i] = ls[i] - rs[i]
			}
		}
	case "*":
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				o[i] = a.lk * rs[i]
			}
		case rs == nil:
			for i := 0; i < n; i++ {
				o[i] = ls[i] * a.rk
			}
		default:
			for i := 0; i < n; i++ {
				o[i] = ls[i] * rs[i]
			}
		}
	case "/":
		// x / 0 is NULL, keeping execution total.
		switch {
		case ls == nil:
			for i := 0; i < n; i++ {
				if rs[i] == 0 {
					if !owned {
						ownMask(ctx, a.mslot, out, n)
						owned = true
					}
					out.Valid[i] = false
					continue
				}
				o[i] = a.lk / rs[i]
			}
		case rs == nil:
			if a.rk == 0 {
				m := ctx.s.maskBuf(a.mslot, n)
				for i := 0; i < n; i++ {
					m[i] = false
				}
				out.Valid = m
				return out
			}
			for i := 0; i < n; i++ {
				o[i] = ls[i] / a.rk
			}
		default:
			for i := 0; i < n; i++ {
				if rs[i] == 0 {
					if !owned {
						ownMask(ctx, a.mslot, out, n)
						owned = true
					}
					out.Valid[i] = false
					continue
				}
				o[i] = ls[i] / rs[i]
			}
		}
	}
	return out
}
