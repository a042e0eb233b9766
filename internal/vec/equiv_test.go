package vec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/col"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/vec"
)

// The equivalence property: every expression the binder can produce
// compiles, and its kernel program produces exactly the oracle's result —
// the same selection for predicates, the same values and null masks for
// value programs, or an error where the oracle errs — over NULL-heavy data
// of every type. Expressions are generated randomly from the binder's
// well-typed shapes: arithmetic, comparisons, every LIKE shape (computed
// patterns included), IN, CASE WHEN, the scalar functions, every CAST the
// binder admits (strings that do not parse included), operands that are
// all literals, typed NULL literals, and predicates in value position.

type exprGen struct {
	r *rand.Rand
}

// caseOf builds a CASE WHEN of result type ty: predicate conditions, typed
// results, and an ELSE that is sometimes absent and sometimes a NULL
// literal.
func (g *exprGen) caseOf(ty col.Type, result func(int) plan.BoundExpr, depth int) plan.BoundExpr {
	n := 1 + g.r.Intn(2)
	cs := &plan.BCase{Ty: ty}
	for i := 0; i < n; i++ {
		cs.Whens = append(cs.Whens, plan.BWhen{Cond: g.pred(depth - 1), Result: result(depth - 1)})
	}
	switch g.r.Intn(3) {
	case 0: // no ELSE: undecided rows are NULL
	case 1:
		cs.Else = &plan.BLit{Val: col.NullValue(ty)}
	default:
		cs.Else = result(depth - 1)
	}
	return cs
}

func (g *exprGen) intExpr(depth int) plan.BoundExpr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(6) {
		case 0, 1, 2:
			return &plan.BCol{Ordinal: g.r.Intn(2), Ty: col.INT64, Name: "i"}
		case 3:
			return &plan.BLit{Val: col.NullValue(col.INT64)}
		}
		return &plan.BLit{Val: col.Int(int64(g.r.Intn(21) - 10))}
	}
	switch g.r.Intn(11) {
	case 8:
		return &plan.BCast{X: g.floatExpr(depth - 1), To: col.INT64}
	case 9:
		return &plan.BCast{X: g.boolExpr(depth - 1), To: col.INT64}
	case 10:
		return &plan.BCast{X: g.numericString(depth - 1), To: col.INT64}
	case 0:
		return &plan.BUnary{Op: "-", X: g.intExpr(depth - 1), Ty: col.INT64}
	case 1:
		return &plan.BFunc{Name: "ABS", Args: []plan.BoundExpr{g.intExpr(depth - 1)}, Ty: col.INT64}
	case 2:
		return &plan.BFunc{Name: "LENGTH", Args: []plan.BoundExpr{g.strExpr(depth - 1)}, Ty: col.INT64}
	case 3:
		fns := []string{"YEAR", "MONTH", "DAY"}
		return &plan.BFunc{Name: fns[g.r.Intn(len(fns))],
			Args: []plan.BoundExpr{&plan.BCol{Ordinal: 5, Ty: col.DATE, Name: "d"}}, Ty: col.INT64}
	case 4:
		return g.caseOf(col.INT64, func(d int) plan.BoundExpr { return g.intExpr(d) }, depth)
	default:
		ops := []string{"+", "-", "*", "%"}
		return &plan.BBinary{Op: ops[g.r.Intn(len(ops))], L: g.intExpr(depth - 1), R: g.intExpr(depth - 1), Ty: col.INT64}
	}
}

func (g *exprGen) floatExpr(depth int) plan.BoundExpr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return &plan.BCol{Ordinal: 2, Ty: col.FLOAT64, Name: "f"}
		}
		if g.r.Intn(8) == 0 {
			return &plan.BLit{Val: col.NullValue(col.FLOAT64)}
		}
		if g.r.Intn(8) == 0 {
			// NaN literal: the kernels must reproduce the SQL ordering,
			// where NaN compares "equal" to everything.
			return &plan.BLit{Val: col.Float(math.NaN())}
		}
		return &plan.BLit{Val: col.Float(float64(g.r.Intn(41)-20) / 4)}
	}
	// Mixed numeric operands widen to FLOAT64, like the binder types them.
	side := func() plan.BoundExpr {
		if g.r.Intn(2) == 0 {
			return g.intExpr(depth - 1)
		}
		return g.floatExpr(depth - 1)
	}
	switch g.r.Intn(10) {
	case 8:
		return &plan.BCast{X: g.intExpr(depth - 1), To: col.FLOAT64}
	case 9:
		return &plan.BCast{X: g.numericString(depth - 1), To: col.FLOAT64}
	case 0:
		return &plan.BFunc{Name: "ABS", Args: []plan.BoundExpr{g.floatExpr(depth - 1)}, Ty: col.FLOAT64}
	case 1:
		fns := []string{"FLOOR", "CEIL"}
		return &plan.BFunc{Name: fns[g.r.Intn(len(fns))], Args: []plan.BoundExpr{side()}, Ty: col.FLOAT64}
	case 2:
		args := []plan.BoundExpr{side()}
		if g.r.Intn(2) == 0 {
			args = append(args, &plan.BLit{Val: col.Int(int64(g.r.Intn(4) - 1))})
		}
		return &plan.BFunc{Name: "ROUND", Args: args, Ty: col.FLOAT64}
	case 3:
		// CASE with FLOAT64 type and occasionally INT64-typed results, to
		// exercise the setCoerced widening.
		return g.caseOf(col.FLOAT64, func(d int) plan.BoundExpr {
			if g.r.Intn(3) == 0 {
				return g.intExpr(d)
			}
			return g.floatExpr(d)
		}, depth)
	default:
		ops := []string{"+", "-", "*", "/"}
		return &plan.BBinary{Op: ops[g.r.Intn(len(ops))], L: side(), R: side(), Ty: col.FLOAT64}
	}
}

func (g *exprGen) strExpr(depth int) plan.BoundExpr {
	scol := func() plan.BoundExpr { return &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"} }
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return scol()
		}
		words := []string{"", "alpha", "Beta", "gam"}
		if g.r.Intn(8) == 0 {
			return &plan.BLit{Val: col.NullValue(col.STRING)}
		}
		return &plan.BLit{Val: col.Str(words[g.r.Intn(len(words))])}
	}
	switch g.r.Intn(7) {
	case 5:
		return &plan.BCast{X: g.anyExpr(depth - 1), To: col.STRING}
	case 6:
		return g.numericString(depth - 1)
	case 0:
		fns := []string{"LOWER", "UPPER"}
		return &plan.BFunc{Name: fns[g.r.Intn(len(fns))], Args: []plan.BoundExpr{g.strExpr(depth - 1)}, Ty: col.STRING}
	case 1:
		args := []plan.BoundExpr{g.strExpr(depth - 1), &plan.BLit{Val: col.Int(int64(g.r.Intn(7) - 2))}}
		if g.r.Intn(2) == 0 {
			args = append(args, &plan.BLit{Val: col.Int(int64(g.r.Intn(5) - 1))})
		}
		return &plan.BFunc{Name: "SUBSTR", Args: args, Ty: col.STRING}
	case 2:
		n := 2 + g.r.Intn(2)
		args := make([]plan.BoundExpr, n)
		for i := range args {
			args[i] = g.strExpr(depth - 1)
		}
		return &plan.BFunc{Name: "CONCAT", Args: args, Ty: col.STRING}
	case 3:
		return &plan.BFunc{Name: "COALESCE",
			Args: []plan.BoundExpr{g.strExpr(depth - 1), g.strExpr(depth - 1)}, Ty: col.STRING}
	default:
		return g.caseOf(col.STRING, func(d int) plan.BoundExpr { return g.strExpr(d) }, depth)
	}
}

// numericString is a string that usually parses as a number: an integer
// or float rendered by CAST, or a literal with spaces around it. Now and
// then it is the string column or a word, which does not parse, so the
// CAST over it must fail in vec exactly when it fails in the oracle.
func (g *exprGen) numericString(depth int) plan.BoundExpr {
	switch g.r.Intn(12) {
	case 0:
		return &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"}
	case 1:
		return &plan.BLit{Val: col.Str("x1")}
	case 2, 3:
		return &plan.BLit{Val: col.Str(fmt.Sprintf(" %d ", g.r.Intn(9)-4))}
	case 4, 5, 6:
		return &plan.BCast{X: g.floatExpr(depth), To: col.STRING}
	}
	return &plan.BCast{X: g.intExpr(depth), To: col.STRING}
}

// boolExpr is a BOOL-valued expression: a bool column or literal, a
// predicate in value position, a string parsed as BOOLEAN, COALESCE or
// CASE.
func (g *exprGen) boolExpr(depth int) plan.BoundExpr {
	bcol := &plan.BCol{Ordinal: 4, Ty: col.BOOL, Name: "b"}
	if depth <= 0 {
		if g.r.Intn(4) == 0 {
			return &plan.BLit{Val: col.NullValue(col.BOOL)}
		}
		return bcol
	}
	switch g.r.Intn(6) {
	case 0:
		return bcol
	case 1:
		words := []string{"true", " F ", "1", "0", "t", "yes"}
		return &plan.BCast{X: &plan.BLit{Val: col.Str(words[g.r.Intn(len(words))])}, To: col.BOOL}
	case 2:
		return &plan.BFunc{Name: "COALESCE", Args: []plan.BoundExpr{g.pred(depth - 1), bcol}, Ty: col.BOOL}
	case 3:
		return g.caseOf(col.BOOL, func(d int) plan.BoundExpr { return g.boolExpr(d) }, depth)
	}
	return g.pred(depth - 1)
}

// dateExpr is a DATE-valued expression, through arithmetic and the
// DATE/TIMESTAMP casts.
func (g *exprGen) dateExpr(depth int) plan.BoundExpr {
	d := &plan.BCol{Ordinal: 5, Ty: col.DATE, Name: "d"}
	if depth <= 0 {
		return d
	}
	switch g.r.Intn(4) {
	case 0:
		return &plan.BBinary{Op: "+", L: g.dateExpr(depth - 1), R: g.intExpr(depth - 1), Ty: col.DATE}
	case 1:
		ts := &plan.BCast{X: g.dateExpr(depth - 1), To: col.TIMESTAMP}
		return &plan.BCast{X: ts, To: col.DATE}
	case 2:
		lits := []string{"1970-01-03", " 1970-01-05 ", "1970-13-01"}
		return &plan.BCast{X: &plan.BLit{Val: col.Str(lits[g.r.Intn(len(lits))])}, To: col.DATE}
	}
	return d
}

// anyExpr is an expression of any column type.
func (g *exprGen) anyExpr(depth int) plan.BoundExpr {
	switch g.r.Intn(5) {
	case 0:
		return g.intExpr(depth)
	case 1:
		return g.floatExpr(depth)
	case 2:
		return g.boolExpr(depth)
	case 3:
		return g.dateExpr(depth)
	}
	return g.strExpr(depth)
}

func (g *exprGen) pred(depth int) plan.BoundExpr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		return g.leafPred(depth)
	}
	switch g.r.Intn(4) {
	case 0:
		return &plan.BBinary{Op: "AND", L: g.pred(depth - 1), R: g.pred(depth - 1), Ty: col.BOOL}
	case 1:
		return &plan.BBinary{Op: "OR", L: g.pred(depth - 1), R: g.pred(depth - 1), Ty: col.BOOL}
	case 2:
		return &plan.BUnary{Op: "NOT", X: g.pred(depth - 1), Ty: col.BOOL}
	default:
		return g.leafPred(depth)
	}
}

func (g *exprGen) leafPred(depth int) plan.BoundExpr {
	cmps := []string{"=", "<>", "<", "<=", ">", ">="}
	op := cmps[g.r.Intn(len(cmps))]
	switch g.r.Intn(10) {
	case 8: // computed string compare: funcs/CASE feed the comparison
		words := []string{"", "alpha", "beta", "ALPHA", "gam"}
		return &plan.BBinary{Op: op, L: g.strExpr(depth),
			R: &plan.BLit{Val: col.Str(words[g.r.Intn(len(words))])}, Ty: col.BOOL}
	case 9: // computed LIKE patterns, string casts and all-literal compares
		scol := &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"}
		switch g.r.Intn(5) {
		case 0:
			return &plan.BBinary{Op: "LIKE", L: g.strExpr(depth - 1), R: scol, Ty: col.BOOL}
		case 1:
			pat := &plan.BFunc{Name: "CONCAT", Args: []plan.BoundExpr{
				&plan.BFunc{Name: "SUBSTR", Args: []plan.BoundExpr{scol, &plan.BLit{Val: col.Int(1)}, &plan.BLit{Val: col.Int(2)}}, Ty: col.STRING},
				&plan.BLit{Val: col.Str("%")}}, Ty: col.STRING}
			return &plan.BBinary{Op: "LIKE", L: g.strExpr(depth - 1), R: pat, Ty: col.BOOL}
		case 2:
			return &plan.BBinary{Op: op,
				L: &plan.BCast{X: g.intExpr(depth - 1), To: col.STRING},
				R: &plan.BLit{Val: col.Str("1")}, Ty: col.BOOL}
		case 3:
			return &plan.BBinary{Op: op, L: &plan.BLit{Val: col.Int(int64(g.r.Intn(3)))},
				R: &plan.BLit{Val: col.Int(int64(g.r.Intn(3)))}, Ty: col.BOOL}
		}
		// A predicate compared with, or tested like, a value.
		if g.r.Intn(2) == 0 {
			return &plan.BIsNull{X: g.boolExpr(depth - 1), Not: g.r.Intn(2) == 0}
		}
		return &plan.BBinary{Op: op, L: g.boolExpr(depth - 1), R: g.boolExpr(depth - 1), Ty: col.BOOL}
	}
	switch g.r.Intn(8) {
	case 0: // int compare (col/arith vs col/arith/literal)
		return &plan.BBinary{Op: op, L: g.intExpr(depth), R: g.intExpr(depth), Ty: col.BOOL}
	case 1: // float / mixed numeric compare
		return &plan.BBinary{Op: op, L: g.floatExpr(depth), R: g.intExpr(depth), Ty: col.BOOL}
	case 2: // string compare
		words := []string{"", "alpha", "beta", "be", "gamma"}
		return &plan.BBinary{Op: op,
			L: &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"},
			R: &plan.BLit{Val: col.Str(words[g.r.Intn(len(words))])}, Ty: col.BOOL}
	case 3: // IS [NOT] NULL over a value expression
		return &plan.BIsNull{X: g.intExpr(depth), Not: g.r.Intn(2) == 0}
	case 4: // bool column, possibly compared with a literal
		c := &plan.BCol{Ordinal: 4, Ty: col.BOOL, Name: "b"}
		if g.r.Intn(2) == 0 {
			return c
		}
		return &plan.BBinary{Op: op, L: c, R: &plan.BLit{Val: col.Bool(g.r.Intn(2) == 0)}, Ty: col.BOOL}
	case 5: // LIKE: every literal pattern shape compiles now
		pats := []string{"al%", "be", "%", "a_pha", "%eta", "a%a", "%et%", "%a", "_l%", "%m_a"}
		return &plan.BBinary{Op: "LIKE",
			L: &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"},
			R: &plan.BLit{Val: col.Str(pats[g.r.Intn(len(pats))])}, Ty: col.BOOL}
	case 6: // [NOT] IN over int/string lists, with NULL-bearing variants
		not := g.r.Intn(2) == 0
		if g.r.Intn(2) == 0 {
			list := []col.Value{col.Int(int64(g.r.Intn(13) - 6)), col.Int(int64(g.r.Intn(13) - 6))}
			switch g.r.Intn(3) {
			case 0:
				list = append(list, col.NullValue(col.INT64))
			case 1:
				// Cross-numeric item: matches via float widening.
				list = append(list, col.Float(float64(g.r.Intn(25)-12)/4))
			}
			return &plan.BIn{X: g.intExpr(depth), List: list, Not: not}
		}
		words := []string{"alpha", "beta", "gamma", "al", ""}
		list := []col.Value{col.Str(words[g.r.Intn(len(words))]), col.Str(words[g.r.Intn(len(words))])}
		if g.r.Intn(3) == 0 {
			list = append(list, col.NullValue(col.STRING))
		}
		return &plan.BIn{X: &plan.BCol{Ordinal: 3, Ty: col.STRING, Name: "s"},
			List: list, Not: not}
	default: // date compare
		return &plan.BBinary{Op: op,
			L: &plan.BCol{Ordinal: 5, Ty: col.DATE, Name: "d"},
			R: &plan.BLit{Val: col.Date(int64(g.r.Intn(10)))}, Ty: col.BOOL}
	}
}

// randBatch builds a NULL-heavy batch: ~1/3 of the rows of every nullable
// column are NULL, int values cluster in a small range so comparisons and
// %/÷ hit both sides, and zero divisors occur.
func randBatch(r *rand.Rand, n int) *col.Batch {
	i1 := col.NewVector(col.INT64, n)
	i2 := col.NewVector(col.INT64, n)
	f1 := col.NewVector(col.FLOAT64, n)
	s1 := col.NewVector(col.STRING, n)
	b1 := col.NewVector(col.BOOL, n)
	d1 := col.NewVector(col.DATE, n)
	words := []string{"alpha", "beta", "gamma", "al", "bet", ""}
	for i := 0; i < n; i++ {
		i1.Ints[i] = int64(r.Intn(13) - 6)
		i2.Ints[i] = int64(r.Intn(7) - 3)
		if r.Intn(10) == 0 {
			f1.Floats[i] = math.NaN()
		} else {
			f1.Floats[i] = float64(r.Intn(25)-12) / 4
		}
		s1.Strs[i] = words[r.Intn(len(words))]
		b1.Bools[i] = r.Intn(2) == 0
		d1.Ints[i] = int64(r.Intn(10))
		for _, v := range []*col.Vector{i2, f1, s1, b1} {
			if r.Intn(3) == 0 {
				v.SetNull(i)
			}
		}
		if r.Intn(5) == 0 {
			i1.SetNull(i)
		}
	}
	return col.NewBatch(i1, i2, f1, s1, b1, d1)
}

func TestPredicateEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	ev := oracle.NewEvaluator()
	var s vec.Scratch
	failed := 0
	for trial := 0; trial < 600; trial++ {
		g := &exprGen{r: r}
		e := g.pred(3)
		b := randBatch(r, 64)
		prog, err := vec.CompilePredicate(e)
		if err != nil {
			t.Fatalf("trial %d: %s does not compile: %v", trial, e, err)
		}
		want, werr := ev.EvalBool(e, b)
		got, gerr := prog.Select(b, &s)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: %s\nvec error %v\noracle error %v", trial, e, gerr, werr)
		}
		if werr != nil {
			failed++
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\nvec sel  %v\noracle   %v", trial, e, got, want)
		}
		// The string column dictionary-coded, as a DICT chunk decodes:
		// leaves that are not dictionary-capable read its materialization.
		if got, err := prog.Select(dictCoded(b), &s); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s over dictionary codes\nvec sel  %v (%v)\noracle   %v", trial, e, got, err, want)
		}
	}
	if failed == 0 || failed > 60 {
		t.Fatalf("%d/600 predicates failed in both evaluators; the generator should make a few fail", failed)
	}
}

func TestValueEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(777))
	ev := oracle.NewEvaluator()
	var s vec.Scratch
	failed := 0
	for trial := 0; trial < 500; trial++ {
		g := &exprGen{r: r}
		var e plan.BoundExpr
		switch trial % 5 {
		case 0:
			e = g.intExpr(3)
		case 1:
			e = g.floatExpr(3)
		case 2:
			e = g.strExpr(3)
		case 3:
			e = g.boolExpr(3)
		default:
			e = g.dateExpr(3)
		}
		prog, err := vec.CompileValue(e)
		if err != nil {
			t.Fatalf("trial %d: %s does not compile: %v", trial, e, err)
		}
		b := randBatch(r, 48)
		want, werr := ev.Eval(e, b)
		got, gerr := prog.Eval(b, &s)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: %s\nvec error %v\noracle error %v", trial, e, gerr, werr)
		}
		if werr != nil {
			failed++
			continue
		}
		if got.Type != want.Type || got.N != want.N {
			t.Fatalf("trial %d: %s: shape (%s,%d) vs (%s,%d)", trial, e, got.Type, got.N, want.Type, want.N)
		}
		for i := 0; i < got.N; i++ {
			if gv, wv := got.Value(i), want.Value(i); !oracle.SameValue(gv, wv) {
				t.Fatalf("trial %d: %s row %d: vec %v, oracle %v", trial, e, i, gv, wv)
			}
		}
		coded, err := prog.Eval(dictCoded(b), &s)
		if err != nil || coded.N != want.N {
			t.Fatalf("trial %d: %s over dictionary codes: %v", trial, e, err)
		}
		for i := 0; i < coded.N; i++ {
			if gv, wv := coded.Value(i), want.Value(i); !oracle.SameValue(gv, wv) {
				t.Fatalf("trial %d: %s over dictionary codes row %d: vec %v, oracle %v", trial, e, i, gv, wv)
			}
		}
	}
	if failed == 0 || failed > 50 {
		t.Fatalf("%d/500 value expressions failed in both evaluators; the generator should make a few fail", failed)
	}
}
