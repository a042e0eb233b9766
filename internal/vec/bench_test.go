package vec_test

import (
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
	"repro/internal/vec"
)

// The kernel microbenchmarks measure exactly the expression shapes that
// dominate selective scans: a modulo-compare predicate over one int column
// (the BenchmarkSelectiveScan filter), a null-heavy conjunction, a CASE, a
// scalar function and the LIKE shapes.

const benchRows = 2048

func benchBatch(withNulls bool) *col.Batch {
	a := col.NewVector(col.INT64, benchRows)
	s := col.NewVector(col.STRING, benchRows)
	words := []string{"alpha", "bravo", "charlie"}
	for i := 0; i < benchRows; i++ {
		a.Ints[i] = int64(i)
		s.Strs[i] = words[i%len(words)]
		if withNulls && i%3 == 1 {
			a.SetNull(i)
		}
	}
	return col.NewBatch(a, s)
}

func modCmpExpr() plan.BoundExpr {
	return &plan.BBinary{Op: "<",
		L: &plan.BBinary{Op: "%",
			L:  &plan.BCol{Ordinal: 0, Ty: col.INT64, Name: "a"},
			R:  &plan.BLit{Val: col.Int(204800)},
			Ty: col.INT64},
		R:  &plan.BLit{Val: col.Int(2048)},
		Ty: col.BOOL}
}

func conjExpr() plan.BoundExpr {
	return &plan.BBinary{Op: "AND",
		L: &plan.BBinary{Op: ">=",
			L:  &plan.BCol{Ordinal: 0, Ty: col.INT64, Name: "a"},
			R:  &plan.BLit{Val: col.Int(100)},
			Ty: col.BOOL},
		R: &plan.BBinary{Op: "LIKE",
			L:  &plan.BCol{Ordinal: 1, Ty: col.STRING, Name: "s"},
			R:  &plan.BLit{Val: col.Str("br%")},
			Ty: col.BOOL},
		Ty: col.BOOL}
}

func benchKernel(b *testing.B, e plan.BoundExpr, batch *col.Batch) {
	prog, err := vec.CompilePredicate(e)
	if err != nil {
		b.Fatal(err)
	}
	var s vec.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Select(batch, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// caseExpr is a branchy CASE predicate: CASE WHEN a % 3 = 0 THEN a ELSE -a
// END > 100, the v2 expression-coverage shape.
func caseExpr() plan.BoundExpr {
	a := &plan.BCol{Ordinal: 0, Ty: col.INT64, Name: "a"}
	return &plan.BBinary{Op: ">",
		L: &plan.BCase{
			Whens: []plan.BWhen{{
				Cond: &plan.BBinary{Op: "=",
					L:  &plan.BBinary{Op: "%", L: a, R: &plan.BLit{Val: col.Int(3)}, Ty: col.INT64},
					R:  &plan.BLit{Val: col.Int(0)},
					Ty: col.BOOL},
				Result: a,
			}},
			Else: &plan.BUnary{Op: "-", X: a, Ty: col.INT64},
			Ty:   col.INT64,
		},
		R:  &plan.BLit{Val: col.Int(100)},
		Ty: col.BOOL}
}

// funcExpr is a scalar-function predicate: LENGTH(s) > 5.
func funcExpr() plan.BoundExpr {
	return &plan.BBinary{Op: ">",
		L: &plan.BFunc{Name: "LENGTH",
			Args: []plan.BoundExpr{&plan.BCol{Ordinal: 1, Ty: col.STRING, Name: "s"}},
			Ty:   col.INT64},
		R:  &plan.BLit{Val: col.Int(5)},
		Ty: col.BOOL}
}

// containsExpr is a non-prefix LIKE: s LIKE '%arli%'.
func containsExpr() plan.BoundExpr {
	return &plan.BBinary{Op: "LIKE",
		L:  &plan.BCol{Ordinal: 1, Ty: col.STRING, Name: "s"},
		R:  &plan.BLit{Val: col.Str("%arli%")},
		Ty: col.BOOL}
}

// benchDictKernel runs a dictionary-eligible predicate at code level: the
// string column arrives as 3 dictionary entries plus codes, so the LIKE
// evaluates |dict| times instead of |rows| times and no string is touched
// per row.
func benchDictKernel(b *testing.B, e plan.BoundExpr) {
	prog, err := vec.CompilePredicate(e)
	if err != nil {
		b.Fatal(err)
	}
	if !prog.DictEligible(1) {
		b.Fatal("predicate not dictionary-eligible")
	}
	full := benchBatch(false)
	words := []string{"alpha", "bravo", "charlie"}
	dc := &vec.DictCol{Dict: words, Codes: make([]uint32, benchRows), N: benchRows}
	for i := range dc.Codes {
		dc.Codes[i] = uint32(i % len(words))
	}
	batch := &col.Batch{Vecs: []*col.Vector{full.Vecs[0], nil}, N: benchRows}
	dicts := map[int]*vec.DictCol{1: dc}
	var s vec.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.SelectDict(batch, dicts, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModCmpKernel(b *testing.B) { benchKernel(b, modCmpExpr(), benchBatch(false)) }

func BenchmarkNullConjKernel(b *testing.B) { benchKernel(b, conjExpr(), benchBatch(true)) }

func BenchmarkCaseKernel(b *testing.B) { benchKernel(b, caseExpr(), benchBatch(true)) }

func BenchmarkFuncLengthKernel(b *testing.B) { benchKernel(b, funcExpr(), benchBatch(false)) }

func BenchmarkContainsLikeKernel(b *testing.B) { benchKernel(b, containsExpr(), benchBatch(false)) }

func BenchmarkContainsLikeDictKernel(b *testing.B) { benchDictKernel(b, containsExpr()) }
