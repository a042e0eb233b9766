package vec

import (
	"math"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

func icol(ord int) *plan.BCol { return &plan.BCol{Ordinal: ord, Ty: col.INT64, Name: "i"} }
func scol(ord int) *plan.BCol { return &plan.BCol{Ordinal: ord, Ty: col.STRING, Name: "s"} }
func bcol(ord int) *plan.BCol { return &plan.BCol{Ordinal: ord, Ty: col.BOOL, Name: "b"} }

func lit(v col.Value) *plan.BLit { return &plan.BLit{Val: v} }

func cmp(op string, l, r plan.BoundExpr) *plan.BBinary {
	return &plan.BBinary{Op: op, L: l, R: r, Ty: col.BOOL}
}

func intsVec(vals []int64, nulls ...int) *col.Vector {
	v := col.NewVector(col.INT64, len(vals))
	copy(v.Ints, vals)
	for _, i := range nulls {
		v.SetNull(i)
	}
	return v
}

func strsVec(vals []string, nulls ...int) *col.Vector {
	v := col.NewVector(col.STRING, len(vals))
	copy(v.Strs, vals)
	for _, i := range nulls {
		v.SetNull(i)
	}
	return v
}

func boolsVec(vals []bool, nulls ...int) *col.Vector {
	v := col.NewVector(col.BOOL, len(vals))
	copy(v.Bools, vals)
	for _, i := range nulls {
		v.SetNull(i)
	}
	return v
}

func runProg(t *testing.T, e plan.BoundExpr, b *col.Batch) []int {
	t.Helper()
	p, err := CompilePredicate(e)
	if err != nil {
		t.Fatalf("Compile rejected %s: %v", e, err)
	}
	var s Scratch
	sel, err := p.Select(b, &s)
	if err != nil {
		t.Fatalf("Run rejected batch for %s: %v", e, err)
	}
	return sel
}

func wantSel(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("selection %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("selection %v, want %v", got, want)
		}
	}
}

func TestCmpScalarInt(t *testing.T) {
	b := col.NewBatch(intsVec([]int64{5, 1, 7, 3, 9}, 3))
	wantSel(t, runProg(t, cmp("<", icol(0), lit(col.Int(6))), b), []int{0, 1})
	wantSel(t, runProg(t, cmp(">=", icol(0), lit(col.Int(5))), b), []int{0, 2, 4})
	// Literal on the left swaps the operator.
	wantSel(t, runProg(t, cmp("<", lit(col.Int(6)), icol(0)), b), []int{2, 4})
}

func TestCmpColCol(t *testing.T) {
	b := col.NewBatch(
		intsVec([]int64{1, 5, 3, 4}, 2),
		intsVec([]int64{2, 4, 9, 4}),
	)
	l, r := icol(0), icol(1)
	r.Ordinal = 1
	wantSel(t, runProg(t, cmp("<", l, r), b), []int{0})
	wantSel(t, runProg(t, cmp("=", l, r), b), []int{3})
}

func TestMixedNumericWidens(t *testing.T) {
	f := col.NewVector(col.FLOAT64, 3)
	copy(f.Floats, []float64{1.5, 2.0, 2.5})
	b := col.NewBatch(intsVec([]int64{1, 2, 3}), f)
	fc := &plan.BCol{Ordinal: 1, Ty: col.FLOAT64, Name: "f"}
	wantSel(t, runProg(t, cmp(">", icol(0), fc), b), []int{2})
	wantSel(t, runProg(t, cmp("<", icol(0), lit(col.Float(2.5))), b), []int{0, 1})
}

func TestThreeValuedLogic(t *testing.T) {
	// x: [1, 2, NULL, 4]; y: [NULL, 2, 2, 2]
	b := col.NewBatch(intsVec([]int64{1, 2, 0, 4}, 2), intsVec([]int64{0, 2, 2, 2}, 0))
	y := icol(1)
	y.Ordinal = 1
	px := cmp("=", icol(0), lit(col.Int(1)))                    // T F N F
	py := cmp("=", y, lit(col.Int(2)))                          // N T T T
	and := &plan.BBinary{Op: "AND", L: px, R: py, Ty: col.BOOL} // N F N F
	or := &plan.BBinary{Op: "OR", L: px, R: py, Ty: col.BOOL}   // T T T T
	wantSel(t, runProg(t, and, b), []int{})
	wantSel(t, runProg(t, or, b), []int{0, 1, 2, 3})
	// NOT(AND): NULL stays NULL, so only the FALSE rows flip to TRUE.
	notAnd := &plan.BUnary{Op: "NOT", X: and, Ty: col.BOOL} // N T N T
	wantSel(t, runProg(t, notAnd, b), []int{1, 3})
	notOr := &plan.BUnary{Op: "NOT", X: or, Ty: col.BOOL}
	wantSel(t, runProg(t, notOr, b), []int{})
}

func TestIsNull(t *testing.T) {
	b := col.NewBatch(intsVec([]int64{1, 2, 3}, 1))
	wantSel(t, runProg(t, &plan.BIsNull{X: icol(0)}, b), []int{1})
	wantSel(t, runProg(t, &plan.BIsNull{X: icol(0), Not: true}, b), []int{0, 2})
	// IS NULL over an arithmetic expression sees the propagated mask.
	sum := &plan.BBinary{Op: "+", L: icol(0), R: lit(col.Int(1)), Ty: col.INT64}
	wantSel(t, runProg(t, &plan.BIsNull{X: sum}, b), []int{1})
}

func TestModAndDivByZero(t *testing.T) {
	b := col.NewBatch(intsVec([]int64{10, 11, 12}), intsVec([]int64{3, 0, 5}))
	d := icol(1)
	d.Ordinal = 1
	// x % y = 1 → row 0 (10%3); row 1 is NULL (div zero), row 2 is 2.
	mod := &plan.BBinary{Op: "%", L: icol(0), R: d, Ty: col.INT64}
	wantSel(t, runProg(t, cmp("=", mod, lit(col.Int(1))), b), []int{0})
	// NULL from %0 is not FALSE either: NOT keeps it dropped.
	not := &plan.BUnary{Op: "NOT", X: cmp("=", mod, lit(col.Int(1))), Ty: col.BOOL}
	wantSel(t, runProg(t, not, b), []int{2})
	// Scalar zero divisor nulls every row.
	modz := &plan.BBinary{Op: "%", L: icol(0), R: lit(col.Int(0)), Ty: col.INT64}
	wantSel(t, runProg(t, &plan.BIsNull{X: modz}, b), []int{0, 1, 2})
}

func TestLikeKernels(t *testing.T) {
	b := col.NewBatch(strsVec([]string{"alpha", "beta", "al", "ALPHA"}, 1))
	like := func(pat string) *plan.BBinary {
		return &plan.BBinary{Op: "LIKE", L: scol(0), R: lit(col.Str(pat)), Ty: col.BOOL}
	}
	wantSel(t, runProg(t, like("al%"), b), []int{0, 2})
	wantSel(t, runProg(t, like("al"), b), []int{2})
	wantSel(t, runProg(t, like("%"), b), []int{0, 2, 3})
	// Suffix, contains, and regexp shapes compile too (NULL row 1 never
	// selects).
	wantSel(t, runProg(t, like("%pha"), b), []int{0})
	wantSel(t, runProg(t, like("%l%"), b), []int{0, 2})
	wantSel(t, runProg(t, like("a_pha"), b), []int{0})
	wantSel(t, runProg(t, like("a%a"), b), []int{0})
	// A computed pattern compiles once per distinct value per run.
	pats := strsVec([]string{"al%", "b%", "%", "ALPHA"}, 2)
	b2 := col.NewBatch(b.Vecs[0], pats)
	colPat := &plan.BBinary{Op: "LIKE", L: scol(0), R: scol(1), Ty: col.BOOL}
	wantSel(t, runProg(t, colPat, b2), []int{0, 3})
	notPat := &plan.BUnary{Op: "NOT", X: colPat, Ty: col.BOOL}
	wantSel(t, runProg(t, notPat, b2), []int{})
}

func TestBoolPredAndConst(t *testing.T) {
	b := col.NewBatch(boolsVec([]bool{true, false, true}, 2))
	wantSel(t, runProg(t, bcol(0), b), []int{0})
	not := &plan.BUnary{Op: "NOT", X: bcol(0), Ty: col.BOOL}
	wantSel(t, runProg(t, not, b), []int{1})
	wantSel(t, runProg(t, lit(col.Bool(true)), b), []int{0, 1, 2})
	wantSel(t, runProg(t, lit(col.Bool(false)), b), []int{})
	wantSel(t, runProg(t, lit(col.Value{Type: col.BOOL, Null: true}), b), []int{})
}

func TestInKernels(t *testing.T) {
	// x: [5, 1, NULL, 3, 9]
	b := col.NewBatch(intsVec([]int64{5, 1, 0, 3, 9}, 2))
	in := func(not bool, vals ...col.Value) *plan.BIn {
		return &plan.BIn{X: icol(0), List: vals, Not: not}
	}
	wantSel(t, runProg(t, in(false, col.Int(1), col.Int(3)), b), []int{1, 3})
	wantSel(t, runProg(t, in(true, col.Int(1), col.Int(3)), b), []int{0, 4})
	// Cross-numeric items widen to float, like Value.Equal.
	wantSel(t, runProg(t, in(false, col.Float(5.0), col.Float(3.5)), b), []int{0})
	// A NULL in the list turns non-matches into NULL: matches still select,
	// but NOT IN selects nothing (no row is definitely absent).
	withNull := []col.Value{col.Int(1), col.NullValue(col.INT64)}
	wantSel(t, runProg(t, in(false, withNull...), b), []int{1})
	wantSel(t, runProg(t, in(true, withNull...), b), []int{})

	// String membership; NULL row 1 never selects on either side.
	sb := col.NewBatch(strsVec([]string{"alpha", "beta", "al"}, 1))
	sin := &plan.BIn{X: scol(0), List: []col.Value{col.Str("al"), col.Str("alpha")}}
	wantSel(t, runProg(t, sin, sb), []int{0, 2})
	wantSel(t, runProg(t, &plan.BIn{X: scol(0), List: sin.List, Not: true}, sb), []int{})

	// Float input: NaN matches nothing, even a NaN list item.
	f := col.NewVector(col.FLOAT64, 3)
	copy(f.Floats, []float64{1.5, math.NaN(), 2.5})
	fb := col.NewBatch(f)
	fc := &plan.BCol{Ordinal: 0, Ty: col.FLOAT64, Name: "f"}
	fin := &plan.BIn{X: fc, List: []col.Value{col.Float(1.5), col.Float(math.NaN())}}
	wantSel(t, runProg(t, fin, fb), []int{0})
	wantSel(t, runProg(t, &plan.BIn{X: fc, List: fin.List, Not: true}, fb), []int{1, 2})
}

func TestCompileRejectsUnsupported(t *testing.T) {
	// Shapes the binder never produces are compile errors.
	cases := []plan.BoundExpr{
		&plan.BFunc{Name: "ABS", Args: []plan.BoundExpr{scol(0)}, Ty: col.INT64},
		&plan.BCase{Whens: []plan.BWhen{{Cond: icol(0), Result: lit(col.Int(1))}}, Ty: col.INT64},
		cmp("=", scol(0), lit(col.Int(1))),
		&plan.BBinary{Op: "/", L: icol(0), R: icol(0), Ty: col.INT64},
		lit(col.NullValue(col.UNKNOWN)),
		&plan.BCast{X: bcol(0), To: col.DATE},
	}
	for _, e := range cases {
		if _, err := CompilePredicate(e); err == nil {
			t.Errorf("Compile accepted unsupported %s", e)
		}
	}
}

func TestRunRejectsLayoutMismatch(t *testing.T) {
	p, err := CompilePredicate(cmp("=", icol(2), lit(col.Int(1))))
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	if _, err := p.Select(col.NewBatch(intsVec([]int64{1})), &s); err == nil {
		t.Error("Run accepted a batch narrower than the referenced ordinal")
	}
	// Sparse batch with a nil vector at the ordinal.
	b := &col.Batch{Vecs: []*col.Vector{nil, nil, nil}, N: 1}
	if _, err := p.Select(b, &s); err == nil {
		t.Error("Run accepted a sparse batch missing the referenced column")
	}
}

func TestScratchReuse(t *testing.T) {
	p, err := CompilePredicate(cmp("<", icol(0), lit(col.Int(5))))
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	b1 := col.NewBatch(intsVec([]int64{1, 9, 2}))
	sel1, _ := p.Select(b1, &s)
	wantSel(t, sel1, []int{0, 2})
	b2 := col.NewBatch(intsVec([]int64{9, 9, 1, 1, 9}))
	sel2, _ := p.Select(b2, &s)
	wantSel(t, sel2, []int{2, 3})
}

// TestValueProgramRootReusesScratch: a value program's result is its
// Scratch's, valid until the next run, so a steady run allocates nothing
// and each run's result holds that run's values.
func TestValueProgramRootReusesScratch(t *testing.T) {
	sum := &plan.BBinary{Op: "+", L: icol(0), R: lit(col.Int(1)), Ty: col.INT64}
	p, err := CompileValue(sum)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	b1 := col.NewBatch(intsVec([]int64{1, 2}))
	b2 := col.NewBatch(intsVec([]int64{10, 20}))
	v1, _ := p.Eval(b1, &s)
	if v1.Ints[0] != 2 || v1.Ints[1] != 3 {
		t.Errorf("got %v", v1.Ints)
	}
	v2, _ := p.Eval(b2, &s)
	if v2 != v1 || &v1.Ints[0] != &v2.Ints[0] {
		t.Error("value program root does not reuse its scratch slot")
	}
	if v2.Ints[0] != 11 || v2.Ints[1] != 21 {
		t.Errorf("got %v", v2.Ints)
	}
	if allocs := testing.AllocsPerRun(10, func() { p.Eval(b1, &s) }); allocs != 0 {
		t.Errorf("a steady run allocates %.0f times", allocs)
	}
}

func TestUnionInto(t *testing.T) {
	got := unionInto(nil, []int{1, 3, 5}, []int{2, 3, 6})
	want := []int{1, 2, 3, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("union %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("union %v want %v", got, want)
		}
	}
}

func TestLikeKernelShapes(t *testing.T) {
	// Every literal pattern shape compiles — exact, prefix, suffix,
	// contains, and the regexp remainder — and selects the matching rows.
	sv := col.NewVector(col.STRING, 4)
	copy(sv.Strs, []string{"alpha", "beta", "gamma", "alp"})
	b := col.NewBatch(sv)
	sc := func() *plan.BCol { return &plan.BCol{Ordinal: 0, Ty: col.STRING, Name: "s"} }
	cases := []struct {
		pat  string
		want []int
	}{
		{"alpha", []int{0}},      // exact
		{"al%", []int{0, 3}},     // prefix
		{"%a", []int{0, 1, 2}},   // suffix
		{"%et%", []int{1}},       // contains
		{"%", []int{0, 1, 2, 3}}, // match-all
		{"a___a", []int{0}},      // regexp
		{"%m_a", []int{2}},       // regexp
		{"_l%", []int{0, 3}},     // regexp
	}
	for _, c := range cases {
		e := &plan.BBinary{Op: "LIKE", L: sc(), R: lit(col.Str(c.pat)), Ty: col.BOOL}
		wantSel(t, runProg(t, e, b), c.want)
	}
}

func TestFloatNaNMatchesInterpreterOrdering(t *testing.T) {
	// SQL comparison (the oracle's compareAt) computes a three-way ordinal
	// where a NaN operand is neither < nor >, i.e. "equal" to everything.
	// The float kernels must reproduce that, not Go's unordered-NaN
	// semantics.
	f := col.NewVector(col.FLOAT64, 3)
	copy(f.Floats, []float64{math.NaN(), 1.0, 2.0})
	b := col.NewBatch(f)
	fc := func() *plan.BCol { return &plan.BCol{Ordinal: 0, Ty: col.FLOAT64, Name: "f"} }
	// NaN "equals" 1.0 under compareAt: rows 0 and 1 are selected.
	wantSel(t, runProg(t, cmp("=", fc(), lit(col.Float(1.0))), b), []int{0, 1})
	wantSel(t, runProg(t, cmp("<>", fc(), lit(col.Float(1.0))), b), []int{2})
	wantSel(t, runProg(t, cmp("<=", fc(), lit(col.Float(1.0))), b), []int{0, 1})
	wantSel(t, runProg(t, cmp(">=", fc(), lit(col.Float(2.0))), b), []int{0, 2})
	wantSel(t, runProg(t, cmp("<", fc(), lit(col.Float(2.0))), b), []int{1})
	// NaN literal side: everything non-null "equals" NaN.
	wantSel(t, runProg(t, cmp("=", fc(), lit(col.Float(math.NaN()))), b), []int{0, 1, 2})
	// Column-vs-column with a NaN operand.
	g := col.NewVector(col.FLOAT64, 3)
	copy(g.Floats, []float64{1.0, math.NaN(), 3.0})
	b2 := col.NewBatch(f, g)
	rc := &plan.BCol{Ordinal: 1, Ty: col.FLOAT64, Name: "g"}
	wantSel(t, runProg(t, cmp("=", fc(), rc), b2), []int{0, 1})
}
