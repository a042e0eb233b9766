package vec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/col"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/vec"
)

// dictView builds the code-level view of a string vector the way the
// encoder does: every row gets a code (null rows carry the code of the zero
// value), dictionary entries in first-appearance order.
func dictView(v *col.Vector) *vec.DictCol {
	idx := make(map[string]uint32)
	dc := &vec.DictCol{N: v.N, Codes: make([]uint32, v.N)}
	if v.Valid != nil {
		dc.Valid = append([]bool(nil), v.Valid...)
	}
	for i := 0; i < v.N; i++ {
		s := v.Strs[i]
		code, ok := idx[s]
		if !ok {
			code = uint32(len(dc.Dict))
			idx[s] = code
			dc.Dict = append(dc.Dict, s)
		}
		dc.Codes[i] = code
	}
	return dc
}

// dictCoded returns b with its string column (ordinal 3) dictionary-coded
// through dictView, the form a DICT chunk decodes to.
func dictCoded(b *col.Batch) *col.Batch {
	dc := dictView(b.Vecs[3])
	out := &col.Batch{Vecs: append([]*col.Vector(nil), b.Vecs...), N: b.N}
	out.Vecs[3] = &col.Vector{Type: col.STRING, Dict: dc.Dict, Codes: dc.Codes, Valid: dc.Valid, N: dc.N}
	return out
}

// dictPred generates predicates built only from dictionary-capable string
// leaves (compare/LIKE/IN/IS NULL over the bare column) plus non-string
// leaves on other columns, so the compiled program stays dict-eligible.
func dictPred(r *rand.Rand, depth int) plan.BoundExpr {
	scol := func() plan.BoundExpr { return &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"} }
	if depth > 0 && r.Intn(2) == 0 {
		switch r.Intn(3) {
		case 0:
			return &plan.BBinary{Op: "AND", L: dictPred(r, depth-1), R: dictPred(r, depth-1), Ty: col.BOOL}
		case 1:
			return &plan.BBinary{Op: "OR", L: dictPred(r, depth-1), R: dictPred(r, depth-1), Ty: col.BOOL}
		default:
			return &plan.BUnary{Op: "NOT", X: dictPred(r, depth-1), Ty: col.BOOL}
		}
	}
	words := []string{"", "alpha", "beta", "bet", "gamma"}
	switch r.Intn(5) {
	case 0:
		cmps := []string{"=", "<>", "<", "<=", ">", ">="}
		return &plan.BBinary{Op: cmps[r.Intn(len(cmps))], L: scol(),
			R: &plan.BLit{Val: col.Str(words[r.Intn(len(words))])}, Ty: col.BOOL}
	case 1:
		pats := []string{"al%", "%a", "%et%", "b_t%", "%", "beta", "a%a"}
		return &plan.BBinary{Op: "LIKE", L: scol(),
			R: &plan.BLit{Val: col.Str(pats[r.Intn(len(pats))])}, Ty: col.BOOL}
	case 2:
		list := []col.Value{col.Str(words[r.Intn(len(words))]), col.Str(words[r.Intn(len(words))])}
		if r.Intn(3) == 0 {
			list = append(list, col.NullValue(col.STRING))
		}
		return &plan.BIn{X: scol(), List: list, Not: r.Intn(2) == 0}
	case 3:
		return &plan.BIsNull{X: scol(), Not: r.Intn(2) == 0}
	default: // non-string leaf on another column
		return &plan.BBinary{Op: "<", L: &plan.BCol{Ordinal: 0, Ty: col.INT64, Name: "i"},
			R: &plan.BLit{Val: col.Int(int64(r.Intn(9) - 4))}, Ty: col.BOOL}
	}
}

// TestDictEquivalenceProperty: Select over materialized strings, Select
// over the dictionary-coded batch, SelectDict over the code-level view, and
// the oracle must all select the same rows, across NULL shapes and every
// dictionary-capable leaf kind.
func TestDictEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1313))
	ev := oracle.NewEvaluator()
	var s1, s2 vec.Scratch
	dictRuns := 0
	for trial := 0; trial < 400; trial++ {
		e := dictPred(r, 3)
		prog, err := vec.CompilePredicate(e)
		if err != nil {
			t.Fatalf("trial %d: dict-capable predicate rejected: %s: %v", trial, e, err)
		}
		b := randBatch(r, 64)
		want, err := ev.EvalBool(e, b)
		if err != nil {
			t.Fatalf("trial %d: oracle error on %s: %v", trial, e, err)
		}
		got, err := prog.Select(b, &s1)
		if err != nil {
			t.Fatalf("trial %d: Run rejected batch for %s: %v", trial, e, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\nvec sel  %v\noracle   %v", trial, e, got, want)
		}
		gotCoded, err := prog.Select(dictCoded(b), &s1)
		if err != nil {
			t.Fatalf("trial %d: Select rejected the dictionary-coded batch for %s: %v", trial, e, err)
		}
		if fmt.Sprint(gotCoded) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\ncoded sel  %v\noracle     %v", trial, e, gotCoded, want)
		}
		if !prog.DictEligible(3) {
			// The predicate never touched the string column; nothing to do.
			continue
		}
		dictRuns++
		// Hand the string column over as codes only.
		dc := dictView(b.Vecs[3])
		stripped := &col.Batch{Vecs: append([]*col.Vector(nil), b.Vecs...), N: b.N}
		stripped.Vecs[3] = nil
		gotDict, err := prog.SelectDict(stripped, map[int]*vec.DictCol{3: dc}, &s2)
		if err != nil {
			t.Fatalf("trial %d: SelectDict rejected eligible input for %s: %v", trial, e, err)
		}
		if fmt.Sprint(gotDict) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\ndict sel  %v\noracle    %v", trial, e, gotDict, want)
		}
	}
	if dictRuns < 100 {
		t.Fatalf("only %d/400 trials exercised the dictionary path", dictRuns)
	}
}

// TestDictEligibility: a string column consumed by anything other than a
// dictionary-capable leaf (here LENGTH) must not be eligible, and SelectDict
// must refuse a view for it rather than evaluate garbage.
func TestDictEligibility(t *testing.T) {
	scol := &plan.BCol{Ordinal: 0, Ty: col.STRING, Name: "s"}
	capable := &plan.BBinary{Op: "=", L: scol, R: &plan.BLit{Val: col.Str("x")}, Ty: col.BOOL}
	p1, err := vec.CompilePredicate(capable)
	if err != nil || !p1.DictEligible(0) {
		t.Fatal("bare string equality should be dict-eligible")
	}
	if p1.DictEligible(1) {
		t.Fatal("unreferenced ordinal reported eligible")
	}

	mixed := &plan.BBinary{Op: "AND", L: capable, R: &plan.BBinary{
		Op: ">",
		L:  &plan.BFunc{Name: "LENGTH", Args: []plan.BoundExpr{scol}, Ty: col.INT64},
		R:  &plan.BLit{Val: col.Int(2)}, Ty: col.BOOL}, Ty: col.BOOL}
	p2, err := vec.CompilePredicate(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if p2.DictEligible(0) {
		t.Fatal("LENGTH consumption must break dictionary eligibility")
	}
	sv := col.NewVector(col.STRING, 2)
	copy(sv.Strs, []string{"x", "yy"})
	b := &col.Batch{Vecs: []*col.Vector{nil}, N: 2}
	if _, err := p2.SelectDict(b, map[int]*vec.DictCol{0: dictView(sv)}, &vec.Scratch{}); err == nil {
		t.Fatal("SelectDict accepted a view for an ineligible ordinal")
	}
}

// TestValueOverDictCodedEscapes: a value program whose root is the bare
// string column — directly, or through same-type casts that compile away —
// hands back the batch's own vector, never the Scratch's per-run
// materialization of a dictionary-coded column. A result kept across a
// second Eval over another batch must be unchanged.
func TestValueOverDictCodedEscapes(t *testing.T) {
	sCol := &plan.BCol{Ordinal: 3, Name: "s1", Ty: col.STRING, Nullable: true}
	r := rand.New(rand.NewSource(77))
	for _, e := range []plan.BoundExpr{
		sCol,
		&plan.BCast{X: sCol, To: col.STRING},
		&plan.BCast{X: &plan.BCast{X: sCol, To: col.STRING}, To: col.STRING},
	} {
		prog, err := vec.CompileValue(e)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		var s vec.Scratch
		b1, b2 := dictCoded(randBatch(r, 64)), dictCoded(randBatch(r, 64))
		first, err := prog.Eval(b1, &s)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if _, err := prog.Eval(b2, &s); err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		for i := 0; i < b1.N; i++ {
			if first.IsNull(i) != b1.Vecs[3].IsNull(i) || first.Str(i) != b1.Vecs[3].Str(i) {
				t.Fatalf("%s row %d: first result changed under a later Eval: %q (null %v), batch %q (null %v)",
					e, i, first.Str(i), first.IsNull(i), b1.Vecs[3].Str(i), b1.Vecs[3].IsNull(i))
			}
		}
	}
}
