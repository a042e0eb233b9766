package vec

import (
	"fmt"

	"repro/internal/col"
	"repro/internal/like"
	"repro/internal/plan"
)

// cmpOp is a comparison operator.
type cmpOp uint8

const (
	cmpEQ cmpOp = iota
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

func cmpOpOf(s string) (cmpOp, bool) {
	switch s {
	case "=":
		return cmpEQ, true
	case "<>":
		return cmpNE, true
	case "<":
		return cmpLT, true
	case "<=":
		return cmpLE, true
	case ">":
		return cmpGT, true
	case ">=":
		return cmpGE, true
	}
	return 0, false
}

// inverse is the operator selecting exactly the FALSE rows: under
// three-valued logic NOT(a op b) keeps NULL and flips TRUE/FALSE, which is
// precisely the inverted comparison.
func (o cmpOp) inverse() cmpOp {
	switch o {
	case cmpEQ:
		return cmpNE
	case cmpNE:
		return cmpEQ
	case cmpLT:
		return cmpGE
	case cmpLE:
		return cmpGT
	case cmpGT:
		return cmpLE
	default:
		return cmpLT
	}
}

// swapped is the operator with the operands exchanged (k op x ⇔ x swapped op k).
func (o cmpOp) swapped() cmpOp {
	switch o {
	case cmpLT:
		return cmpGT
	case cmpLE:
		return cmpGE
	case cmpGT:
		return cmpLT
	case cmpGE:
		return cmpLE
	default:
		return o // = and <> are symmetric
	}
}

// compilePred translates a bound boolean expression into a predicate tree.
func (c *compiler) compilePred(e plan.BoundExpr) (pred, error) {
	switch x := e.(type) {
	case *plan.BBinary:
		switch x.Op {
		case "AND", "OR":
			l, err := c.compilePred(x.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compilePred(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "AND" {
				return &andPred{l: l, r: r, slot: c.selSlot()}, nil
			}
			return &orPred{l: l, r: r, slot: c.selSlot()}, nil
		case "=", "<>", "<", "<=", ">", ">=":
			return c.compileCmp(x)
		case "LIKE":
			return c.compileLike(x)
		}

	case *plan.BUnary:
		if x.Op == "NOT" {
			child, err := c.compilePred(x.X)
			if err != nil {
				return nil, err
			}
			return &notPred{x: child}, nil
		}

	case *plan.BIsNull:
		v, err := c.compileVal(x.X)
		if err != nil {
			return nil, err
		}
		return &isNullPred{x: v, not: x.Not, slot: c.selSlot(), dictOrd: c.dictOrdOf(v)}, nil

	case *plan.BIn:
		return c.compileIn(x)

	case *plan.BLit:
		if x.Val.Type == col.BOOL {
			return &constPred{val: x.Val.B, null: x.Val.Null}, nil
		}

	case *plan.BCol, *plan.BCase, *plan.BFunc, *plan.BCast:
		// A BOOL-valued column, CASE, COALESCE or CAST is its own
		// predicate.
		v, err := c.compileVal(e)
		if err != nil {
			return nil, err
		}
		if v.typ() == col.BOOL {
			return &boolPred{x: v, slot: c.selSlot()}, nil
		}
	}
	return nil, unsupported(e)
}

// compileCmp builds a comparison kernel, specializing a literal operand
// into a scalar compare and widening mixed numeric operands to float.
// When both operands are literals the left one is broadcast.
func (c *compiler) compileCmp(x *plan.BBinary) (pred, error) {
	op, _ := cmpOpOf(x.Op)
	if rk, ok := litScalar(x.R); ok {
		v, err := c.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		return c.cmpScalarNode(x, op, v, rk)
	}
	if lk, ok := litScalar(x.L); ok {
		v, err := c.compileVal(x.R)
		if err != nil {
			return nil, err
		}
		return c.cmpScalarNode(x, op.swapped(), v, lk)
	}
	l, err := c.compileVal(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compileVal(x.R)
	if err != nil {
		return nil, err
	}
	if l.typ() != r.typ() {
		if !(l.typ().Numeric() && r.typ().Numeric()) {
			return nil, unsupported(x)
		}
		if l.typ() == col.INT64 {
			l = &castIF{x: l, slot: c.vecSlot()}
		}
		if r.typ() == col.INT64 {
			r = &castIF{x: r, slot: c.vecSlot()}
		}
	}
	return &cmpVV{op: op, l: l, r: r, slot: c.selSlot()}, nil
}

// cmpScalarNode coerces the scalar to the expression's type and builds the
// scalar comparison of e.
func (c *compiler) cmpScalarNode(e plan.BoundExpr, op cmpOp, v valExpr, k col.Value) (pred, error) {
	t := v.typ()
	switch {
	case k.Type == t:
	case k.Type.Numeric() && t.Numeric():
		if t == col.INT64 {
			v = &castIF{x: v, slot: c.vecSlot()}
		}
		k = col.Float(k.AsFloat())
	default:
		return nil, unsupported(e)
	}
	p := &cmpScalar{op: op, x: v, k: k, slot: c.selSlot(), dictOrd: -1}
	if k.Type == col.STRING {
		if p.dictOrd = c.dictOrdOf(v); p.dictOrd >= 0 {
			p.accSlot = c.accSlot()
		}
	}
	return p, nil
}

// compileIn builds the IN-list membership kernel. The binder guarantees a
// literal list; compile specializes the list by the input expression's
// type — same-type items become a hash set (or native compare),
// cross-numeric items widen to float exactly as col.Value.Equal does, and
// items Equal can never match (cross-type, non-numeric) are dropped. NOT
// IN is the same kernel behind a notPred swap: under three-valued logic
// the TRUE and FALSE sets just trade places while NULL stays NULL.
func (c *compiler) compileIn(x *plan.BIn) (pred, error) {
	v, err := c.compileVal(x.X)
	if err != nil {
		return nil, err
	}
	p := &inPred{x: v, slot: c.selSlot(), dictOrd: -1}
	t := v.typ()
	if t == col.STRING {
		if p.dictOrd = c.dictOrdOf(v); p.dictOrd >= 0 {
			p.accSlot = c.accSlot()
		}
	}
	for _, lv := range x.List {
		if lv.Null {
			p.hasNull = true
			continue
		}
		switch {
		case lv.Type == t:
			switch t {
			case col.INT64, col.DATE, col.TIMESTAMP:
				if p.ints == nil {
					p.ints = make(map[int64]struct{}, len(x.List))
				}
				p.ints[lv.I] = struct{}{}
			case col.FLOAT64:
				// Slice, not map: float membership must follow ==, and a
				// linear scan over a literal list sidesteps NaN/±0 hashing
				// questions entirely.
				p.floats = append(p.floats, lv.F)
			case col.STRING:
				if p.strs == nil {
					p.strs = make(map[string]struct{}, len(x.List))
				}
				p.strs[lv.S] = struct{}{}
			case col.BOOL:
				if lv.B {
					p.hasTrue = true
				} else {
					p.hasFalse = true
				}
			}
		case lv.Type.Numeric() && t.Numeric():
			// Cross-numeric item: Equal compares AsFloat() ==.
			p.floats = append(p.floats, lv.AsFloat())
		default:
			// Equal is constantly false for this item; drop it.
		}
	}
	if x.Not {
		return &notPred{x: p}, nil
	}
	return p, nil
}

// compileLike handles LIKE: a literal pattern compiles once, here, through
// internal/like, which specializes equality/prefix/suffix/contains shapes
// and compiles the rest to an anchored regexp; a computed pattern compiles
// each distinct value once per run.
func (c *compiler) compileLike(x *plan.BBinary) (pred, error) {
	v, err := c.compileVal(x.L)
	if err != nil {
		return nil, err
	}
	if v.typ() != col.STRING {
		return nil, unsupported(x)
	}
	if pat, ok := litScalar(x.R); ok && pat.Type == col.STRING {
		m, err := like.Compile(pat.S)
		if err != nil {
			return nil, fmt.Errorf("vec: bad LIKE pattern %q: %w", pat.S, err)
		}
		p := &likePred{x: v, m: m, slot: c.selSlot(), dictOrd: c.dictOrdOf(v)}
		if p.dictOrd >= 0 {
			p.accSlot = c.accSlot()
		}
		return p, nil
	}
	pat, err := c.compileVal(x.R)
	if err != nil {
		return nil, err
	}
	if pat.typ() != col.STRING {
		return nil, unsupported(x)
	}
	return &likeVV{x: v, pat: pat, slot: c.selSlot(), likeSlot: c.likeSlot()}, nil
}

// ordered are the types compared with the native <.
type ordered interface {
	~int64 | ~float64 | ~string
}

// selCmpVS selects the rows of sel where vals[i] op k holds and the row is
// valid. The op switch is hoisted out of the row loop — that, plus the
// scalar right side, is the whole point of the kernel.
func selCmpVS[T ordered](op cmpOp, vals []T, valid []bool, k T, sel, out []int) []int {
	switch op {
	case cmpEQ:
		if valid == nil {
			for _, i := range sel {
				if vals[i] == k {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if valid[i] && vals[i] == k {
					out = append(out, i)
				}
			}
		}
	case cmpNE:
		if valid == nil {
			for _, i := range sel {
				if vals[i] != k {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if valid[i] && vals[i] != k {
					out = append(out, i)
				}
			}
		}
	case cmpLT:
		if valid == nil {
			for _, i := range sel {
				if vals[i] < k {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if valid[i] && vals[i] < k {
					out = append(out, i)
				}
			}
		}
	case cmpLE:
		if valid == nil {
			for _, i := range sel {
				if vals[i] <= k {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if valid[i] && vals[i] <= k {
					out = append(out, i)
				}
			}
		}
	case cmpGT:
		if valid == nil {
			for _, i := range sel {
				if vals[i] > k {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if valid[i] && vals[i] > k {
					out = append(out, i)
				}
			}
		}
	case cmpGE:
		if valid == nil {
			for _, i := range sel {
				if vals[i] >= k {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range sel {
				if valid[i] && vals[i] >= k {
					out = append(out, i)
				}
			}
		}
	}
	return out
}

// selCmpVV is the column-vs-column comparison kernel.
func selCmpVV[T ordered](op cmpOp, a, b []T, av, bv []bool, sel, out []int) []int {
	if av == nil && bv == nil {
		switch op {
		case cmpEQ:
			for _, i := range sel {
				if a[i] == b[i] {
					out = append(out, i)
				}
			}
		case cmpNE:
			for _, i := range sel {
				if a[i] != b[i] {
					out = append(out, i)
				}
			}
		case cmpLT:
			for _, i := range sel {
				if a[i] < b[i] {
					out = append(out, i)
				}
			}
		case cmpLE:
			for _, i := range sel {
				if a[i] <= b[i] {
					out = append(out, i)
				}
			}
		case cmpGT:
			for _, i := range sel {
				if a[i] > b[i] {
					out = append(out, i)
				}
			}
		case cmpGE:
			for _, i := range sel {
				if a[i] >= b[i] {
					out = append(out, i)
				}
			}
		}
		return out
	}
	for _, i := range sel {
		if (av != nil && !av[i]) || (bv != nil && !bv[i]) {
			continue
		}
		keep := false
		switch op {
		case cmpEQ:
			keep = a[i] == b[i]
		case cmpNE:
			keep = a[i] != b[i]
		case cmpLT:
			keep = a[i] < b[i]
		case cmpLE:
			keep = a[i] <= b[i]
		case cmpGT:
			keep = a[i] > b[i]
		case cmpGE:
			keep = a[i] >= b[i]
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// Float comparisons follow a three-way ordinal (a<b → -1, a>b → +1, else
// 0) and test the op against it, the order SQL comparison uses throughout
// the engine. Under that scheme a NaN operand yields 0 — "equal" — for
// every pairing, so native Go comparisons (where NaN is unordered) would
// diverge on NaN-bearing data. Each op below is the ordinal test expressed
// directly: EQ ⇔ !(a<b)&&!(a>b), NE ⇔ a<b||a>b, LE ⇔ !(a>b), GE ⇔ !(a<b).

// selCmpFloatVS is the float column-vs-scalar kernel with that NaN
// ordering; like selCmpVS, the op dispatch is hoisted out of the row loop.
func selCmpFloatVS(op cmpOp, vals []float64, valid []bool, k float64, sel, out []int) []int {
	ok := func(i int) bool { return valid == nil || valid[i] }
	switch op {
	case cmpEQ:
		for _, i := range sel {
			if ok(i) && !(vals[i] < k) && !(vals[i] > k) {
				out = append(out, i)
			}
		}
	case cmpNE:
		for _, i := range sel {
			if ok(i) && (vals[i] < k || vals[i] > k) {
				out = append(out, i)
			}
		}
	case cmpLT:
		for _, i := range sel {
			if ok(i) && vals[i] < k {
				out = append(out, i)
			}
		}
	case cmpLE:
		for _, i := range sel {
			if ok(i) && !(vals[i] > k) {
				out = append(out, i)
			}
		}
	case cmpGT:
		for _, i := range sel {
			if ok(i) && vals[i] > k {
				out = append(out, i)
			}
		}
	case cmpGE:
		for _, i := range sel {
			if ok(i) && !(vals[i] < k) {
				out = append(out, i)
			}
		}
	}
	return out
}

// selCmpFloatVV is the float column-vs-column kernel with that NaN
// ordering.
func selCmpFloatVV(op cmpOp, a, b []float64, av, bv []bool, sel, out []int) []int {
	ok := func(i int) bool {
		return (av == nil || av[i]) && (bv == nil || bv[i])
	}
	switch op {
	case cmpEQ:
		for _, i := range sel {
			if ok(i) && !(a[i] < b[i]) && !(a[i] > b[i]) {
				out = append(out, i)
			}
		}
	case cmpNE:
		for _, i := range sel {
			if ok(i) && (a[i] < b[i] || a[i] > b[i]) {
				out = append(out, i)
			}
		}
	case cmpLT:
		for _, i := range sel {
			if ok(i) && a[i] < b[i] {
				out = append(out, i)
			}
		}
	case cmpLE:
		for _, i := range sel {
			if ok(i) && !(a[i] > b[i]) {
				out = append(out, i)
			}
		}
	case cmpGT:
		for _, i := range sel {
			if ok(i) && a[i] > b[i] {
				out = append(out, i)
			}
		}
	case cmpGE:
		for _, i := range sel {
			if ok(i) && !(a[i] < b[i]) {
				out = append(out, i)
			}
		}
	}
	return out
}

// selCmpBoolVS compares a bool column against a scalar under the SQL order
// FALSE < TRUE.
func selCmpBoolVS(op cmpOp, vals, valid []bool, k bool, sel, out []int) []int {
	for _, i := range sel {
		if valid != nil && !valid[i] {
			continue
		}
		v := vals[i]
		keep := false
		switch op {
		case cmpEQ:
			keep = v == k
		case cmpNE:
			keep = v != k
		case cmpLT:
			keep = !v && k
		case cmpLE:
			keep = !v || k
		case cmpGT:
			keep = v && !k
		case cmpGE:
			keep = v || !k
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// selCmpBoolVV is the bool column-vs-column comparison.
func selCmpBoolVV(op cmpOp, a, b []bool, av, bv []bool, sel, out []int) []int {
	for _, i := range sel {
		if (av != nil && !av[i]) || (bv != nil && !bv[i]) {
			continue
		}
		x, y := a[i], b[i]
		keep := false
		switch op {
		case cmpEQ:
			keep = x == y
		case cmpNE:
			keep = x != y
		case cmpLT:
			keep = !x && y
		case cmpLE:
			keep = !x || y
		case cmpGT:
			keep = x && !y
		case cmpGE:
			keep = x || !y
		}
		if keep {
			out = append(out, i)
		}
	}
	return out
}

// cmpScalar is expression-vs-literal; the literal is pre-coerced to the
// expression's type at compile time. String compares over a bare column are
// dictionary-capable: dictOrd holds the ordinal (or -1) and accSlot the
// accept-set scratch slot.
type cmpScalar struct {
	op      cmpOp
	x       valExpr
	k       col.Value
	slot    int
	dictOrd int
	accSlot int
}

func (p *cmpScalar) selTrue(ctx *evalCtx, sel []int) []int {
	return p.run(ctx, sel, p.op)
}

func (p *cmpScalar) selFalse(ctx *evalCtx, sel []int) []int {
	return p.run(ctx, sel, p.op.inverse())
}

func (p *cmpScalar) run(ctx *evalCtx, sel []int, op cmpOp) []int {
	if p.dictOrd >= 0 {
		if dc := ctx.dict(p.dictOrd); dc != nil {
			accept := ctx.s.acceptBuf(p.accSlot, len(dc.Dict))
			k := p.k.S
			switch op {
			case cmpEQ:
				for j, e := range dc.Dict {
					accept[j] = e == k
				}
			case cmpNE:
				for j, e := range dc.Dict {
					accept[j] = e != k
				}
			case cmpLT:
				for j, e := range dc.Dict {
					accept[j] = e < k
				}
			case cmpLE:
				for j, e := range dc.Dict {
					accept[j] = e <= k
				}
			case cmpGT:
				for j, e := range dc.Dict {
					accept[j] = e > k
				}
			case cmpGE:
				for j, e := range dc.Dict {
					accept[j] = e >= k
				}
			}
			return selDict(ctx, p.slot, dc, accept, sel)
		}
	}
	v := p.x.eval(ctx)
	out := ctx.s.selBuf(p.slot)
	switch v.Type {
	case col.INT64, col.DATE, col.TIMESTAMP:
		out = selCmpVS(op, v.Ints, v.Valid, p.k.I, sel, out)
	case col.FLOAT64:
		out = selCmpFloatVS(op, v.Floats, v.Valid, p.k.F, sel, out)
	case col.STRING:
		out = selCmpVS(op, v.Strs, v.Valid, p.k.S, sel, out)
	case col.BOOL:
		out = selCmpBoolVS(op, v.Bools, v.Valid, p.k.B, sel, out)
	}
	return ctx.s.putSel(p.slot, out)
}

// cmpVV is expression-vs-expression; both sides have the same type after
// compile-time widening.
type cmpVV struct {
	op   cmpOp
	l, r valExpr
	slot int
}

func (p *cmpVV) selTrue(ctx *evalCtx, sel []int) []int {
	return p.run(ctx, sel, p.op)
}

func (p *cmpVV) selFalse(ctx *evalCtx, sel []int) []int {
	return p.run(ctx, sel, p.op.inverse())
}

func (p *cmpVV) run(ctx *evalCtx, sel []int, op cmpOp) []int {
	lv := p.l.eval(ctx)
	rv := p.r.eval(ctx)
	out := ctx.s.selBuf(p.slot)
	switch lv.Type {
	case col.INT64, col.DATE, col.TIMESTAMP:
		out = selCmpVV(op, lv.Ints, rv.Ints, lv.Valid, rv.Valid, sel, out)
	case col.FLOAT64:
		out = selCmpFloatVV(op, lv.Floats, rv.Floats, lv.Valid, rv.Valid, sel, out)
	case col.STRING:
		out = selCmpVV(op, lv.Strs, rv.Strs, lv.Valid, rv.Valid, sel, out)
	case col.BOOL:
		out = selCmpBoolVV(op, lv.Bools, rv.Bools, lv.Valid, rv.Valid, sel, out)
	}
	return ctx.s.putSel(p.slot, out)
}

// andPred: TRUE rows chain through both children (the selection-vector
// shortcut — the right child only sees the left child's survivors); FALSE
// rows are the union of either child's FALSE rows.
type andPred struct {
	l, r pred
	slot int
}

func (p *andPred) selTrue(ctx *evalCtx, sel []int) []int {
	return p.r.selTrue(ctx, p.l.selTrue(ctx, sel))
}

func (p *andPred) selFalse(ctx *evalCtx, sel []int) []int {
	a := p.l.selFalse(ctx, sel)
	b := p.r.selFalse(ctx, sel)
	return ctx.s.putSel(p.slot, unionInto(ctx.s.selBuf(p.slot), a, b))
}

// orPred mirrors andPred.
type orPred struct {
	l, r pred
	slot int
}

func (p *orPred) selTrue(ctx *evalCtx, sel []int) []int {
	a := p.l.selTrue(ctx, sel)
	b := p.r.selTrue(ctx, sel)
	return ctx.s.putSel(p.slot, unionInto(ctx.s.selBuf(p.slot), a, b))
}

func (p *orPred) selFalse(ctx *evalCtx, sel []int) []int {
	return p.r.selFalse(ctx, p.l.selFalse(ctx, sel))
}

// notPred swaps the TRUE and FALSE sets; NULL stays NULL by construction.
type notPred struct {
	x pred
}

func (p *notPred) selTrue(ctx *evalCtx, sel []int) []int  { return p.x.selFalse(ctx, sel) }
func (p *notPred) selFalse(ctx *evalCtx, sel []int) []int { return p.x.selTrue(ctx, sel) }

// isNullPred is x IS [NOT] NULL. A bare string column is dictionary-capable
// (it only needs the view's validity mask), so IS NULL tests do not cost a
// string column its dictionary eligibility.
type isNullPred struct {
	x       valExpr
	not     bool
	slot    int
	dictOrd int
}

func (p *isNullPred) selTrue(ctx *evalCtx, sel []int) []int {
	return p.run(ctx, sel, !p.not)
}

func (p *isNullPred) selFalse(ctx *evalCtx, sel []int) []int {
	return p.run(ctx, sel, p.not)
}

func (p *isNullPred) run(ctx *evalCtx, sel []int, wantNull bool) []int {
	if p.dictOrd >= 0 {
		if dc := ctx.dict(p.dictOrd); dc != nil {
			if dc.Valid == nil {
				if wantNull {
					return ctx.s.selBuf(p.slot)
				}
				return sel
			}
			out := ctx.s.selBuf(p.slot)
			for _, i := range sel {
				if dc.Valid[i] != wantNull {
					out = append(out, i)
				}
			}
			return ctx.s.putSel(p.slot, out)
		}
	}
	v := p.x.eval(ctx)
	if v.Valid == nil {
		if wantNull {
			return ctx.s.selBuf(p.slot)
		}
		return sel
	}
	out := ctx.s.selBuf(p.slot)
	if wantNull {
		for _, i := range sel {
			if !v.Valid[i] {
				out = append(out, i)
			}
		}
	} else {
		for _, i := range sel {
			if v.Valid[i] {
				out = append(out, i)
			}
		}
	}
	return ctx.s.putSel(p.slot, out)
}

// boolPred treats a BOOL expression as the predicate itself.
type boolPred struct {
	x    valExpr
	slot int
}

func (p *boolPred) selTrue(ctx *evalCtx, sel []int) []int  { return p.run(ctx, sel, true) }
func (p *boolPred) selFalse(ctx *evalCtx, sel []int) []int { return p.run(ctx, sel, false) }

func (p *boolPred) run(ctx *evalCtx, sel []int, want bool) []int {
	v := p.x.eval(ctx)
	out := ctx.s.selBuf(p.slot)
	if v.Valid == nil {
		for _, i := range sel {
			if v.Bools[i] == want {
				out = append(out, i)
			}
		}
	} else {
		for _, i := range sel {
			if v.Valid[i] && v.Bools[i] == want {
				out = append(out, i)
			}
		}
	}
	return ctx.s.putSel(p.slot, out)
}

// constPred is a TRUE/FALSE/NULL literal predicate.
type constPred struct {
	val  bool
	null bool
}

func (p *constPred) selTrue(ctx *evalCtx, sel []int) []int {
	if !p.null && p.val {
		return sel
	}
	return sel[:0]
}

func (p *constPred) selFalse(ctx *evalCtx, sel []int) []int {
	if !p.null && !p.val {
		return sel
	}
	return sel[:0]
}

// inPred is x IN (literal list), specialized by input type at compile
// time. The three-valued truth table: NULL input is NULL; a match is TRUE; a non-match is FALSE unless the
// list carries a NULL literal, in which case it is unknown (NULL).
type inPred struct {
	x                 valExpr
	hasNull           bool // list contains a NULL literal: non-matches are unknown
	ints              map[int64]struct{}
	floats            []float64
	strs              map[string]struct{}
	hasTrue, hasFalse bool // BOOL-input membership
	slot              int
	dictOrd           int
	accSlot           int
}

func (p *inPred) selTrue(ctx *evalCtx, sel []int) []int  { return p.run(ctx, sel, true) }
func (p *inPred) selFalse(ctx *evalCtx, sel []int) []int { return p.run(ctx, sel, false) }

func (p *inPred) matchInt(v int64) bool {
	if p.ints != nil {
		if _, ok := p.ints[v]; ok {
			return true
		}
	}
	if len(p.floats) > 0 {
		f := float64(v)
		for _, k := range p.floats {
			if f == k {
				return true
			}
		}
	}
	return false
}

func (p *inPred) matchFloat(v float64) bool {
	for _, k := range p.floats {
		if v == k { // native ==: NaN never matches, mirroring Value.Equal
			return true
		}
	}
	return false
}

func (p *inPred) run(ctx *evalCtx, sel []int, want bool) []int {
	if !want && p.hasNull {
		// A NULL-bearing list has no FALSE rows: matches are TRUE and
		// non-matches are unknown. The operand is evaluated all the same:
		// a CAST in it fails the run whatever the list holds.
		if p.dictOrd < 0 || ctx.dict(p.dictOrd) == nil {
			p.x.eval(ctx)
		}
		return ctx.s.putSel(p.slot, ctx.s.selBuf(p.slot))
	}
	if p.dictOrd >= 0 {
		if dc := ctx.dict(p.dictOrd); dc != nil {
			accept := ctx.s.acceptBuf(p.accSlot, len(dc.Dict))
			for j, e := range dc.Dict {
				_, m := p.strs[e]
				accept[j] = m == want
			}
			return selDict(ctx, p.slot, dc, accept, sel)
		}
	}
	v := p.x.eval(ctx)
	out := ctx.s.selBuf(p.slot)
	valid := v.Valid
	switch v.Type {
	case col.INT64, col.DATE, col.TIMESTAMP:
		for _, i := range sel {
			if valid != nil && !valid[i] {
				continue
			}
			if p.matchInt(v.Ints[i]) == want {
				out = append(out, i)
			}
		}
	case col.FLOAT64:
		for _, i := range sel {
			if valid != nil && !valid[i] {
				continue
			}
			if p.matchFloat(v.Floats[i]) == want {
				out = append(out, i)
			}
		}
	case col.STRING:
		for _, i := range sel {
			if valid != nil && !valid[i] {
				continue
			}
			_, m := p.strs[v.Strs[i]]
			if m == want {
				out = append(out, i)
			}
		}
	case col.BOOL:
		for _, i := range sel {
			if valid != nil && !valid[i] {
				continue
			}
			m := (v.Bools[i] && p.hasTrue) || (!v.Bools[i] && p.hasFalse)
			if m == want {
				out = append(out, i)
			}
		}
	}
	return ctx.s.putSel(p.slot, out)
}

// likePred is string LIKE with any literal pattern; the matcher carries the
// shared specialization (exact/prefix/suffix/contains/regexp). Under a
// dictionary it matches each distinct entry once — which is where
// regexp-shaped patterns win biggest, |dict| regexp runs instead of |rows|.
type likePred struct {
	x       valExpr
	m       like.Matcher
	slot    int
	dictOrd int
	accSlot int
}

func (p *likePred) selTrue(ctx *evalCtx, sel []int) []int  { return p.run(ctx, sel, true) }
func (p *likePred) selFalse(ctx *evalCtx, sel []int) []int { return p.run(ctx, sel, false) }

func (p *likePred) run(ctx *evalCtx, sel []int, want bool) []int {
	if p.dictOrd >= 0 {
		if dc := ctx.dict(p.dictOrd); dc != nil {
			accept := ctx.s.acceptBuf(p.accSlot, len(dc.Dict))
			for j, e := range dc.Dict {
				accept[j] = p.m.Match(e) == want
			}
			return selDict(ctx, p.slot, dc, accept, sel)
		}
	}
	v := p.x.eval(ctx)
	out := ctx.s.selBuf(p.slot)
	vals, valid := v.Strs, v.Valid
	for _, i := range sel {
		if valid != nil && !valid[i] {
			continue
		}
		if p.m.Match(vals[i]) == want {
			out = append(out, i)
		}
	}
	return ctx.s.putSel(p.slot, out)
}

// likeVV is LIKE with a computed pattern: each row's pattern compiles on
// its first use in the run, through the Scratch's per-node matcher map.
type likeVV struct {
	x, pat   valExpr
	slot     int
	likeSlot int
}

func (p *likeVV) selTrue(ctx *evalCtx, sel []int) []int  { return p.run(ctx, sel, true) }
func (p *likeVV) selFalse(ctx *evalCtx, sel []int) []int { return p.run(ctx, sel, false) }

func (p *likeVV) run(ctx *evalCtx, sel []int, want bool) []int {
	v := p.x.eval(ctx)
	pv := p.pat.eval(ctx)
	out := ctx.s.selBuf(p.slot)
	for _, i := range sel {
		if v.IsNull(i) || pv.IsNull(i) {
			continue
		}
		m, err := ctx.s.likeMatcher(p.likeSlot, pv.Strs[i])
		if err != nil {
			ctx.fail(err)
			break
		}
		if m.Match(v.Strs[i]) == want {
			out = append(out, i)
		}
	}
	return ctx.s.putSel(p.slot, out)
}
