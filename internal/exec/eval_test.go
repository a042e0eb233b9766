package exec

import (
	"testing"
	"testing/quick"

	"repro/internal/col"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/vec"
)

// The semantic cases below pin SQL behaviour — division by zero,
// three-valued logic, IN with NULLs, CASE, CAST edge cases and errors, the
// scalar functions — on the oracle, and every one runs through a vec value
// program too: evaluator.Eval returns the oracle's vector after checking
// that vec computed the same values and null mask, or failed alike.

type evaluator struct{ t *testing.T }

func newEvaluator(t *testing.T) evaluator { return evaluator{t} }

func (ev evaluator) Eval(e plan.BoundExpr, b *col.Batch) (*col.Vector, error) {
	ev.t.Helper()
	want, werr := oracle.NewEvaluator().Eval(e, b)
	prog, err := vec.CompileValue(e)
	if err != nil {
		ev.t.Fatalf("vec does not compile %s: %v", e, err)
	}
	got, gerr := prog.Eval(b, &vec.Scratch{})
	if (werr != nil) != (gerr != nil) {
		ev.t.Fatalf("%s: oracle error %v, vec error %v", e, werr, gerr)
	}
	if werr == nil {
		sameVector(ev.t, e, got, want)
	}
	return want, werr
}

// EvalBool checks vec's Program selection against the oracle's.
func (ev evaluator) EvalBool(e plan.BoundExpr, b *col.Batch) ([]int, error) {
	ev.t.Helper()
	want, werr := oracle.NewEvaluator().EvalBool(e, b)
	prog, err := vec.CompilePredicate(e)
	if err != nil {
		ev.t.Fatalf("vec does not compile %s: %v", e, err)
	}
	got, gerr := prog.Select(b, &vec.Scratch{})
	if (werr != nil) != (gerr != nil) {
		ev.t.Fatalf("%s: oracle error %v, vec error %v", e, werr, gerr)
	}
	if len(got) != len(want) {
		ev.t.Fatalf("%s: vec selects %v, oracle %v", e, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			ev.t.Fatalf("%s: vec selects %v, oracle %v", e, got, want)
		}
	}
	return want, werr
}

// sameVector fails unless got and want hold the same type, length, null
// mask and values (floats bit for bit, any two NaNs equal).
func sameVector(t *testing.T, e plan.BoundExpr, got, want *col.Vector) {
	t.Helper()
	if got.Type != want.Type || got.N != want.N {
		t.Fatalf("%s: vec (%s, %d rows), oracle (%s, %d rows)", e, got.Type, got.N, want.Type, want.N)
	}
	for i := 0; i < got.N; i++ {
		g, w := got.Value(i), want.Value(i)
		if !oracle.SameValue(g, w) {
			t.Fatalf("%s row %d: vec %v, oracle %v", e, i, g, w)
		}
	}
}

// oneColBatch builds a single-column batch.
func oneColBatch(v *col.Vector) *col.Batch { return col.NewBatch(v) }

func lit(v col.Value) *plan.BLit { return &plan.BLit{Val: v} }

func TestEvalArithmeticNullPropagation(t *testing.T) {
	ev := newEvaluator(t)
	v := intsVec(10, 20, 30)
	v.SetNull(1)
	b := oneColBatch(v)
	expr := &plan.BBinary{Op: "+", L: colRef(0, col.INT64), R: lit(col.Int(5)), Ty: col.INT64}
	out, err := ev.Eval(expr, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ints[0] != 15 || out.Ints[2] != 35 {
		t.Fatalf("values = %v", out.Ints)
	}
	if !out.IsNull(1) {
		t.Fatalf("null not propagated")
	}
}

func TestEvalDivisionByZeroIsNull(t *testing.T) {
	ev := newEvaluator(t)
	b := oneColBatch(intsVec(10, 0))
	div := &plan.BBinary{Op: "/", L: lit(col.Int(100)), R: colRef(0, col.INT64), Ty: col.FLOAT64}
	out, err := ev.Eval(div, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Floats[0] != 10 || !out.IsNull(1) {
		t.Fatalf("div = %v nulls=%v", out.Floats, out.Valid)
	}
	mod := &plan.BBinary{Op: "%", L: lit(col.Int(100)), R: colRef(0, col.INT64), Ty: col.INT64}
	out, err = ev.Eval(mod, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ints[0] != 0 || !out.IsNull(1) {
		t.Fatalf("mod = %v nulls=%v", out.Ints, out.Valid)
	}
}

func TestEvalThreeValuedLogic(t *testing.T) {
	ev := newEvaluator(t)
	mk := func(vals []int, nulls []bool) *col.Vector {
		v := col.NewVector(col.BOOL, len(vals))
		for i, x := range vals {
			v.Bools[i] = x == 1
		}
		for i, n := range nulls {
			if n {
				v.SetNull(i)
			}
		}
		return v
	}
	// rows: (T,F), (T,NULL), (F,NULL), (NULL,NULL)
	l := mk([]int{1, 1, 0, 0}, []bool{false, false, false, true})
	r := mk([]int{0, 0, 0, 0}, []bool{false, true, true, true})
	b := col.NewBatch(l, r)

	and := &plan.BBinary{Op: "AND", L: colRef(0, col.BOOL), R: colRef(1, col.BOOL), Ty: col.BOOL}
	out, err := ev.Eval(and, b)
	if err != nil {
		t.Fatal(err)
	}
	// T AND F = F; T AND NULL = NULL; F AND NULL = F; NULL AND NULL = NULL
	if out.IsNull(0) || out.Bools[0] {
		t.Fatalf("T AND F = %v/%v", out.Bools[0], out.IsNull(0))
	}
	if !out.IsNull(1) {
		t.Fatalf("T AND NULL not null")
	}
	if out.IsNull(2) || out.Bools[2] {
		t.Fatalf("F AND NULL should be FALSE")
	}
	if !out.IsNull(3) {
		t.Fatalf("NULL AND NULL not null")
	}

	or := &plan.BBinary{Op: "OR", L: colRef(0, col.BOOL), R: colRef(1, col.BOOL), Ty: col.BOOL}
	out, err = ev.Eval(or, b)
	if err != nil {
		t.Fatal(err)
	}
	// T OR F = T; T OR NULL = T; F OR NULL = NULL; NULL OR NULL = NULL
	if out.IsNull(0) || !out.Bools[0] {
		t.Fatalf("T OR F wrong")
	}
	if out.IsNull(1) || !out.Bools[1] {
		t.Fatalf("T OR NULL should be TRUE")
	}
	if !out.IsNull(2) || !out.IsNull(3) {
		t.Fatalf("F/NULL OR NULL should be NULL")
	}
}

func TestEvalLikePatterns(t *testing.T) {
	ev := newEvaluator(t)
	v := col.NewVector(col.STRING, 4)
	v.Strs = []string{"BUILDING", "BUILD", "REBUILDING", "b.uilding"}
	b := oneColBatch(v)
	cases := map[string][]bool{
		"BUILD%":   {true, true, false, false},
		"%BUILD%":  {true, true, true, false},
		"BUILD___": {true, false, false, false}, // BUILD + exactly 3 chars = BUILDING
		"BUILD_NG": {true, false, false, false},
		"b.%":      {false, false, false, true}, // '.' is literal
	}
	for pat, want := range cases {
		expr := &plan.BBinary{Op: "LIKE", L: colRef(0, col.STRING), R: lit(col.Str(pat)), Ty: col.BOOL}
		out, err := ev.Eval(expr, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out.Bools[i] != want[i] {
				t.Errorf("%q LIKE %q = %v, want %v", v.Strs[i], pat, out.Bools[i], want[i])
			}
		}
	}
}

func TestEvalInWithNulls(t *testing.T) {
	ev := newEvaluator(t)
	v := intsVec(1, 2, 3)
	v.SetNull(2)
	b := oneColBatch(v)
	// x IN (1, NULL): 1->TRUE, 2->NULL (list has null), NULL->NULL
	in := &plan.BIn{X: colRef(0, col.INT64), List: []col.Value{col.Int(1), col.NullValue(col.INT64)}}
	out, err := ev.Eval(in, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.IsNull(0) || !out.Bools[0] {
		t.Fatalf("1 IN (1,NULL) wrong")
	}
	if !out.IsNull(1) {
		t.Fatalf("2 IN (1,NULL) should be NULL")
	}
	if !out.IsNull(2) {
		t.Fatalf("NULL IN (...) should be NULL")
	}
	// NOT IN with a match is FALSE even with NULLs present.
	notIn := &plan.BIn{X: colRef(0, col.INT64), List: []col.Value{col.Int(1), col.NullValue(col.INT64)}, Not: true}
	out, err = ev.Eval(notIn, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.IsNull(0) || out.Bools[0] {
		t.Fatalf("1 NOT IN (1,NULL) should be FALSE")
	}
}

func TestEvalCaseLazySemantics(t *testing.T) {
	ev := newEvaluator(t)
	b := oneColBatch(intsVec(1, 2, 3))
	c := &plan.BCase{
		Whens: []plan.BWhen{
			{Cond: &plan.BBinary{Op: "=", L: colRef(0, col.INT64), R: lit(col.Int(1)), Ty: col.BOOL},
				Result: lit(col.Str("one"))},
			{Cond: &plan.BBinary{Op: "=", L: colRef(0, col.INT64), R: lit(col.Int(2)), Ty: col.BOOL},
				Result: lit(col.Str("two"))},
		},
		Ty: col.STRING,
	}
	out, err := ev.Eval(c, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Strs[0] != "one" || out.Strs[1] != "two" {
		t.Fatalf("case = %v", out.Strs)
	}
	if !out.IsNull(2) {
		t.Fatalf("no ELSE should yield NULL")
	}
	// Overlapping arms: the first TRUE condition wins; a NULL condition
	// falls through like FALSE.
	x := intsVec(1, 5, 9)
	x.SetNull(2)
	gt := func(k int64) plan.BoundExpr {
		return &plan.BBinary{Op: ">", L: colRef(0, col.INT64), R: lit(col.Int(k)), Ty: col.BOOL}
	}
	c = &plan.BCase{
		Whens: []plan.BWhen{{Cond: gt(3), Result: lit(col.Int(30))}, {Cond: gt(0), Result: lit(col.Int(0))}},
		Else:  lit(col.Float(-1.5)),
		Ty:    col.FLOAT64,
	}
	out, err = ev.Eval(c, oneColBatch(x))
	if err != nil {
		t.Fatal(err)
	}
	if out.Floats[0] != 0 || out.Floats[1] != 30 || out.Floats[2] != -1.5 {
		t.Fatalf("case = %v", out.Floats)
	}
}

// TestEvalCastFailsInUntakenArm: a CAST arm is evaluated for every row,
// so a string that does not parse fails the expression even where no row
// takes that arm.
func TestEvalCastFailsInUntakenArm(t *testing.T) {
	ev := newEvaluator(t)
	a := intsVec(0, 0)
	s := col.NewVector(col.STRING, 2)
	s.Strs = []string{"x", "7"}
	c := &plan.BCase{
		Whens: []plan.BWhen{{
			Cond:   &plan.BBinary{Op: ">", L: colRef(0, col.INT64), R: lit(col.Int(0)), Ty: col.BOOL},
			Result: &plan.BCast{X: colRef(1, col.STRING), To: col.INT64},
		}},
		Else: lit(col.Int(0)),
		Ty:   col.INT64,
	}
	if _, err := ev.Eval(c, col.NewBatch(a, s)); err == nil {
		t.Fatal("unparsable string in an untaken arm was accepted")
	}
}

func TestEvalCastEdgeCases(t *testing.T) {
	ev := newEvaluator(t)
	v := col.NewVector(col.STRING, 2)
	v.Strs = []string{" 42 ", "nope"}
	b := oneColBatch(v)
	cast := &plan.BCast{X: colRef(0, col.STRING), To: col.INT64}
	if _, err := ev.Eval(cast, b); err == nil {
		t.Fatalf("bad cast accepted")
	}
	v.Strs[1] = "7"
	out, err := ev.Eval(cast, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ints[0] != 42 || out.Ints[1] != 7 {
		t.Fatalf("cast = %v", out.Ints)
	}
	// bool -> int
	bv := col.NewVector(col.BOOL, 2)
	bv.Bools = []bool{true, false}
	out, err = ev.Eval(&plan.BCast{X: colRef(0, col.BOOL), To: col.INT64}, oneColBatch(bv))
	if err != nil || out.Ints[0] != 1 || out.Ints[1] != 0 {
		t.Fatalf("bool cast = %v, %v", out, err)
	}
	// date <-> timestamp round trip
	dv := col.NewVector(col.DATE, 1)
	dv.Ints[0] = 10000
	ts, err := ev.Eval(&plan.BCast{X: colRef(0, col.DATE), To: col.TIMESTAMP}, oneColBatch(dv))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ev.Eval(&plan.BCast{X: colRef(0, col.TIMESTAMP), To: col.DATE}, oneColBatch(ts))
	if err != nil || back.Ints[0] != 10000 {
		t.Fatalf("date roundtrip = %v, %v", back, err)
	}
}

func TestEvalCastConversions(t *testing.T) {
	ev := newEvaluator(t)
	f := col.NewVector(col.FLOAT64, 3)
	f.Floats = []float64{2.9, -2.9, 0.5}
	out, err := ev.Eval(&plan.BCast{X: colRef(0, col.FLOAT64), To: col.INT64}, oneColBatch(f))
	if err != nil || out.Ints[0] != 2 || out.Ints[1] != -2 || out.Ints[2] != 0 {
		t.Fatalf("DOUBLE -> BIGINT truncates: %v, %v", out, err)
	}
	out, err = ev.Eval(&plan.BCast{X: colRef(0, col.FLOAT64), To: col.STRING}, oneColBatch(f))
	if err != nil || out.Strs[0] != "2.9" {
		t.Fatalf("DOUBLE -> VARCHAR: %v, %v", out, err)
	}
	bv := col.NewVector(col.BOOL, 2)
	bv.Bools = []bool{true, false}
	bv.SetNull(1)
	out, err = ev.Eval(&plan.BCast{X: colRef(0, col.BOOL), To: col.STRING}, oneColBatch(bv))
	if err != nil || out.Strs[0] != "true" || !out.IsNull(1) {
		t.Fatalf("BOOLEAN -> VARCHAR keeps NULL: %v, %v", out, err)
	}
	sv := col.NewVector(col.STRING, 3)
	sv.Strs = []string{" 1995-03-15 ", "T", "2.5e1"}
	for _, c := range []struct {
		row  int
		to   col.Type
		want col.Value
	}{
		{0, col.DATE, col.Date(9204)},
		{1, col.BOOL, col.Bool(true)},
		{2, col.FLOAT64, col.Float(25)},
	} {
		out, err := ev.Eval(&plan.BCast{X: colRef(0, col.STRING), To: c.to}, oneColBatch(sv.Slice(c.row, c.row+1)))
		if err != nil || !out.Value(0).Equal(c.want) {
			t.Fatalf("CAST %q AS %s = %v, %v; want %v", sv.Strs[c.row], c.to, out, err, c.want)
		}
	}
	for _, to := range []col.Type{col.INT64, col.FLOAT64, col.DATE, col.TIMESTAMP, col.BOOL} {
		bad := col.NewVector(col.STRING, 1)
		bad.Strs[0] = "nope"
		if _, err := ev.Eval(&plan.BCast{X: colRef(0, col.STRING), To: to}, oneColBatch(bad)); err == nil {
			t.Fatalf("CAST 'nope' AS %s accepted", to)
		}
	}
}

func TestEvalScalarFunctions(t *testing.T) {
	ev := newEvaluator(t)
	sv := col.NewVector(col.STRING, 1)
	sv.Strs = []string{"Hello"}
	b := oneColBatch(sv)
	check := func(name string, args []plan.BoundExpr, ty col.Type, want col.Value) {
		t.Helper()
		out, err := ev.Eval(&plan.BFunc{Name: name, Args: args, Ty: ty}, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := out.Value(0); !got.Equal(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	sref := colRef(0, col.STRING)
	check("LOWER", []plan.BoundExpr{sref}, col.STRING, col.Str("hello"))
	check("UPPER", []plan.BoundExpr{sref}, col.STRING, col.Str("HELLO"))
	check("LENGTH", []plan.BoundExpr{sref}, col.INT64, col.Int(5))
	check("SUBSTR", []plan.BoundExpr{sref, lit(col.Int(2)), lit(col.Int(3))}, col.STRING, col.Str("ell"))
	check("SUBSTR", []plan.BoundExpr{sref, lit(col.Int(10))}, col.STRING, col.Str(""))
	check("CONCAT", []plan.BoundExpr{sref, lit(col.Str("!"))}, col.STRING, col.Str("Hello!"))
	check("ABS", []plan.BoundExpr{lit(col.Int(-9))}, col.INT64, col.Int(9))
	check("ABS", []plan.BoundExpr{lit(col.Float(-2.5))}, col.FLOAT64, col.Float(2.5))
	check("ROUND", []plan.BoundExpr{lit(col.Float(2.567)), lit(col.Int(1))}, col.FLOAT64, col.Float(2.6))
	check("FLOOR", []plan.BoundExpr{lit(col.Float(2.9))}, col.FLOAT64, col.Float(2))
	check("CEIL", []plan.BoundExpr{lit(col.Float(2.1))}, col.FLOAT64, col.Float(3))
	d, _ := col.ParseDate("1995-03-15")
	check("YEAR", []plan.BoundExpr{lit(col.Date(d))}, col.INT64, col.Int(1995))
	check("MONTH", []plan.BoundExpr{lit(col.Date(d))}, col.INT64, col.Int(3))
	check("DAY", []plan.BoundExpr{lit(col.Date(d))}, col.INT64, col.Int(15))
	check("COALESCE", []plan.BoundExpr{lit(col.NullValue(col.STRING)), lit(col.Str("x"))}, col.STRING, col.Str("x"))
}

func TestEvalBoolSelectsOnlyTrue(t *testing.T) {
	ev := newEvaluator(t)
	v := intsVec(1, 2, 3, 4)
	v.SetNull(3)
	b := oneColBatch(v)
	pred := &plan.BBinary{Op: ">", L: colRef(0, col.INT64), R: lit(col.Int(1)), Ty: col.BOOL}
	sel, err := ev.EvalBool(pred, b)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 1,2 pass; row 3 is NULL > 1 = NULL -> dropped.
	if len(sel) != 2 || sel[0] != 1 || sel[1] != 2 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestBetweenDesugarEquivalenceProperty(t *testing.T) {
	// Property: x >= lo AND x <= hi (the Between desugaring) agrees with a
	// direct range check for random ints.
	ev := newEvaluator(t)
	f := func(xs []int64, lo, hi int8) bool {
		if len(xs) == 0 {
			return true
		}
		v := intsVec(xs...)
		b := oneColBatch(v)
		expr := &plan.BBinary{Op: "AND",
			L:  &plan.BBinary{Op: ">=", L: colRef(0, col.INT64), R: lit(col.Int(int64(lo))), Ty: col.BOOL},
			R:  &plan.BBinary{Op: "<=", L: colRef(0, col.INT64), R: lit(col.Int(int64(hi))), Ty: col.BOOL},
			Ty: col.BOOL,
		}
		out, err := ev.Eval(expr, b)
		if err != nil {
			return false
		}
		for i, x := range xs {
			want := x >= int64(lo) && x <= int64(hi)
			if out.Bools[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
