package vec_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
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

// BenchmarkSelKernel times one selection kernel per batch at a range of
// selectivities: INT64 and FLOAT64 compared with a scalar, a
// dictionary-coded STRING column through its accept set, and INT64 with a
// validity mask. Each case cycles selKernelBatches distinct batches of
// uniform random values in [0, 100), so a branch predictor cannot learn
// one batch's outcomes; the "sorted" case sorts each batch, the order in
// which a data-dependent branch predicts well. ns/op is per batch of selKernelRows rows.
func BenchmarkSelKernel(b *testing.B) {
	const selKernelBatches, selKernelRows = 256, 4096
	rng := rand.New(rand.NewPCG(1, 2))
	dict := make([]string, 100)
	for j := range dict {
		dict[j] = fmt.Sprintf("v%02d", j)
	}
	// batches builds the typed batches of one case: column 0 INT64, 1
	// FLOAT64, 2 a dictionary-coded STRING and 3 INT64 with about one row
	// in ten NULL, row i holding value u[i] (as a code into dict for the
	// string column).
	batches := func(sorted bool) []*col.Batch {
		out := make([]*col.Batch, selKernelBatches)
		for k := range out {
			u := make([]int, selKernelRows)
			for i := range u {
				u[i] = rng.IntN(100)
			}
			if sorted {
				slices.Sort(u)
			}
			a := col.NewVector(col.INT64, selKernelRows)
			f := col.NewVector(col.FLOAT64, selKernelRows)
			s := &col.Vector{Type: col.STRING, Dict: dict, Codes: make([]uint32, selKernelRows), N: selKernelRows}
			m := col.NewVector(col.INT64, selKernelRows)
			m.Valid = make([]bool, selKernelRows)
			for i, x := range u {
				a.Ints[i], f.Floats[i], s.Codes[i], m.Ints[i] = int64(x), float64(x), uint32(x), int64(x)
				m.Valid[i] = uint32(k*selKernelRows+i)*2654435761>>16%10 != 0 // a hash, not a period
			}
			out[k] = col.NewBatch(a, f, s, m)
		}
		return out
	}
	random, sorted := batches(false), batches(true)
	kinds := []struct {
		name string
		ord  int
		ty   col.Type
		lit  func(pct int) col.Value
	}{
		{"int64", 0, col.INT64, func(pct int) col.Value { return col.Int(int64(pct)) }},
		{"float64", 1, col.FLOAT64, func(pct int) col.Value { return col.Float(float64(pct)) }},
		{"dict", 2, col.STRING, func(pct int) col.Value { return col.Str(dict[pct]) }},
		{"int64null", 3, col.INT64, func(pct int) col.Value { return col.Int(int64(pct)) }},
	}
	cases := []struct {
		name string
		pct  int
		data []*col.Batch
	}{
		{"sel=0", 0, random}, {"sel=1", 1, random}, {"sel=15", 15, random},
		{"sel=50", 50, random}, {"sel=99", 99, random}, {"sel=50sorted", 50, sorted},
	}
	for _, kd := range kinds {
		for _, c := range cases {
			b.Run(kd.name+"/"+c.name, func(b *testing.B) {
				// x < lit keeps the values below pct: pct % of rows.
				prog, err := vec.CompilePredicate(&plan.BBinary{Op: "<",
					L:  &plan.BCol{Ordinal: kd.ord, Ty: kd.ty, Name: kd.name},
					R:  &plan.BLit{Val: kd.lit(c.pct)},
					Ty: col.BOOL})
				if err != nil {
					b.Fatal(err)
				}
				var s vec.Scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := prog.Select(c.data[i%selKernelBatches], &s); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/selKernelRows, "ns/row")
			})
		}
	}
}
