package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/oracle"
	"repro/internal/plan"
)

// A probe table cp and a build table cb whose string columns go through a
// join and then GROUP BY, DISTINCT, LIKE and ORDER BY. cj is the joined
// row's table, which the oracle reads.
var (
	codedP = chainTable("cp", []catalog.Column{
		{Name: "p_k", Type: col.INT64, Nullable: true},
		{Name: "p_s", Type: col.STRING, Nullable: true},
		{Name: "p_v", Type: col.INT64},
	})
	codedB = chainTable("cb", []catalog.Column{
		{Name: "b_k", Type: col.INT64, Nullable: true},
		{Name: "b_name", Type: col.STRING, Nullable: true},
		{Name: "b_s", Type: col.STRING, Nullable: true},
	})
	codedJ = chainTable("cj", append(slices.Clone(codedP.Table.Columns), codedB.Table.Columns...))
)

// Joined-row ordinals of the columns the upper plans read.
const (
	jPK, jPS, jPV, jBK, jBName = 0, 1, 2, 3, 4
)

// codedProbe returns probe batches of uneven sizes, some smaller than the
// build, whose p_s is dictionary-coded under a fresh dictionary per batch:
// the same five values, one of them "", in a new order, so consecutive
// dictionaries have one length and different codes.
func codedProbe() []*col.Batch {
	r := rand.New(rand.NewSource(47))
	values := []string{"s0", "s1", "s2", "s3", ""}
	var out []*col.Batch
	for _, n := range []int{40, 3, 25, 60, 1, 40, 7} {
		dict := slices.Clone(values)
		r.Shuffle(len(dict), func(i, j int) { dict[i], dict[j] = dict[j], dict[i] })
		k, v := col.NewVector(col.INT64, n), col.NewVector(col.INT64, n)
		s := &col.Vector{Type: col.STRING, Dict: dict, Codes: make([]uint32, n), N: n}
		for i := 0; i < n; i++ {
			k.Ints[i] = int64(r.Intn(12))
			v.Ints[i] = int64(r.Intn(10))
			s.Codes[i] = uint32(r.Intn(len(dict)))
			if r.Intn(6) == 0 {
				k.SetNull(i)
			}
			if r.Intn(6) == 0 {
				s.SetNull(i)
			}
		}
		out = append(out, col.NewBatch(k, s, v))
	}
	return out
}

// codedBuild returns two plain build batches: keys with duplicates and
// NULLs, names with duplicates and NULLs, and a string key column.
func codedBuild() []*col.Batch {
	r := rand.New(rand.NewSource(7))
	var out []*col.Batch
	for _, n := range []int{17, 13} {
		k, name, s := col.NewVector(col.INT64, n), col.NewVector(col.STRING, n), col.NewVector(col.STRING, n)
		for i := 0; i < n; i++ {
			k.Ints[i] = int64(r.Intn(10))
			name.Strs[i] = fmt.Sprintf("n-%d", r.Intn(7))
			s.Strs[i] = []string{"s0", "s1", "s2", "s9", ""}[r.Intn(5)]
			if r.Intn(8) == 0 {
				k.SetNull(i)
			}
			if r.Intn(6) == 0 {
				name.SetNull(i)
			}
			if r.Intn(9) == 0 {
				s.SetNull(i)
			}
		}
		out = append(out, col.NewBatch(k, name, s))
	}
	return out
}

// codedJoinRef is the nested-loop join of probe and build: every pair
// whose keys (probe column pk, build column bk) are equal and non-NULL and
// whose residual, evaluated by the oracle, is TRUE; a LEFT join keeps an
// unmatched probe row once, NULL-extended.
func codedJoinRef(t *testing.T, probe, build []*col.Batch, kind plan.JoinKind, pk, bk int, residual plan.BoundExpr) *col.Batch {
	var prows, brows [][]col.Value
	for _, b := range probe {
		for r := 0; r < b.N; r++ {
			prows = append(prows, b.Row(r))
		}
	}
	for _, b := range build {
		for r := 0; r < b.N; r++ {
			brows = append(brows, b.Row(r))
		}
	}
	var pairs [][]col.Value
	var owner []int // probe row of each pair
	for p, pr := range prows {
		for _, br := range brows {
			if !pr[pk].Null && !br[bk].Null && pr[pk].Equal(br[bk]) {
				pairs = append(pairs, append(slices.Clone(pr), br...))
				owner = append(owner, p)
			}
		}
	}
	pass := make([]bool, len(pairs))
	if residual == nil {
		for i := range pass {
			pass[i] = true
		}
	} else {
		sel, err := oracle.NewEvaluator().EvalBool(residual, rowsBatch(pairs))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range sel {
			pass[i] = true
		}
	}
	var out [][]col.Value
	i := 0
	for p, pr := range prows {
		matched := false
		for ; i < len(pairs) && owner[i] == p; i++ {
			if pass[i] {
				out = append(out, pairs[i])
				matched = true
			}
		}
		if !matched && kind == plan.JoinLeft {
			row := slices.Clone(pr)
			for _, c := range codedB.Table.Columns {
				row = append(row, col.NullValue(c.Type))
			}
			out = append(out, row)
		}
	}
	return rowsBatch(out)
}

// rowsBatch builds a batch of the joined schema from rows.
func rowsBatch(rows [][]col.Value) *col.Batch {
	fields := codedJ.Schema().Fields
	vecs := make([]*col.Vector, len(fields))
	for c, f := range fields {
		vecs[c] = col.NewVector(f.Type, len(rows))
		for r, row := range rows {
			vecs[c].Set(r, row[c])
		}
	}
	return &col.Batch{Vecs: vecs, N: len(rows)}
}

// codedUppers are the plans over the join: GROUP BY the build's string
// alone, beside the probe's string (both coded, so the code-tuple table
// spans probe dictionaries that change and a build dictionary that does
// not), and beside an integer (hashed rows); DISTINCT; COUNT(DISTINCT) and
// MIN/MAX of it; a LIKE filter; and ORDER BY it.
var codedUppers = map[string]func(child plan.Node) plan.Node{
	"group by name": func(child plan.Node) plan.Node {
		return &plan.AggNode{Child: child, GroupBy: []plan.BoundExpr{colRef(jBName, col.STRING)}, GroupNames: []string{"g"},
			Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Ty: col.INT64, Name: "n"}, {Func: plan.AggSum, Arg: colRef(jPV, col.INT64), Ty: col.INT64, Name: "s"}}}
	},
	"group by probe string, name": func(child plan.Node) plan.Node {
		return &plan.AggNode{Child: child, GroupBy: []plan.BoundExpr{colRef(jPS, col.STRING), colRef(jBName, col.STRING)}, GroupNames: []string{"g", "h"},
			Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Ty: col.INT64, Name: "n"}}}
	},
	"group by probe string, int, name": func(child plan.Node) plan.Node {
		return &plan.AggNode{Child: child, GroupBy: []plan.BoundExpr{colRef(jPS, col.STRING), colRef(jPV, col.INT64), colRef(jBName, col.STRING)},
			GroupNames: []string{"g", "h", "i"}, Aggs: []plan.AggSpec{{Func: plan.AggCountStar, Ty: col.INT64, Name: "n"}}}
	},
	"distinct name": func(child plan.Node) plan.Node {
		return &plan.AggNode{Child: child, GroupBy: []plan.BoundExpr{colRef(jBName, col.STRING)}, GroupNames: []string{"g"}}
	},
	"count distinct, min, max of name": func(child plan.Node) plan.Node {
		name := colRef(jBName, col.STRING)
		return &plan.AggNode{Child: child, GroupBy: []plan.BoundExpr{colRef(jPS, col.STRING)}, GroupNames: []string{"g"},
			Aggs: []plan.AggSpec{{Func: plan.AggCount, Arg: name, Distinct: true, Ty: col.INT64, Name: "d"},
				{Func: plan.AggMin, Arg: name, Ty: col.STRING, Name: "lo"}, {Func: plan.AggMax, Arg: name, Ty: col.STRING, Name: "hi"}}}
	},
	"like name": func(child plan.Node) plan.Node {
		return &plan.FilterNode{Child: child, Cond: likeName("n-1%")}
	},
	"order by name": func(child plan.Node) plan.Node {
		return &plan.SortNode{Child: child, Keys: []plan.SortKey{{Ordinal: jBName, Desc: true}, {Ordinal: jPV}}}
	},
}

func likeName(pat string) plan.BoundExpr {
	return &plan.BBinary{Op: "LIKE", L: colRef(jBName, col.STRING), R: &plan.BLit{Val: col.Str(pat)}, Ty: col.BOOL}
}

// TestJoinBuildStringsStayCoded: a prepared build keeps its string
// columns dictionary-coded, so the join's output gathers codes that
// share the build's dictionary, and every plan over them returns the
// nested-loop oracle's rows. The joins are inner and LEFT, on an integer
// and on a string key (the probe's, under a new dictionary of one length
// every batch), with and without a LIKE residual, over builds with
// duplicate and NULL names and over an empty build, which stays plain. A
// build's dictionary holds each of its names once.
func TestJoinBuildStringsStayCoded(t *testing.T) {
	// p_v < 3 OR b_name LIKE 'n-1%'
	residual := &plan.BBinary{Op: "OR", L: &plan.BBinary{Op: "<", L: colRef(jPV, col.INT64), R: &plan.BLit{Val: col.Int(3)}, Ty: col.BOOL},
		R: likeName("n-1%"), Ty: col.BOOL}
	type joinCase struct {
		kind     plan.JoinKind
		strKey   bool
		residual bool
		empty    bool
	}
	var cases []joinCase
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		for _, strKey := range []bool{false, true} {
			for _, res := range []bool{false, true} {
				cases = append(cases, joinCase{kind, strKey, res, false})
			}
		}
		cases = append(cases, joinCase{kind, false, false, true})
	}
	for _, jc := range cases {
		join := &plan.JoinNode{Kind: jc.kind, Left: codedP, Right: codedB,
			LeftKeys: []plan.BoundExpr{colRef(0, col.INT64)}, RightKeys: []plan.BoundExpr{colRef(0, col.INT64)}}
		pk, bk := 0, 0
		if jc.strKey {
			join.LeftKeys, join.RightKeys = []plan.BoundExpr{colRef(1, col.STRING)}, []plan.BoundExpr{colRef(2, col.STRING)}
			pk, bk = 1, 2
		}
		if jc.residual {
			join.Residual = residual
		}
		data := map[*plan.ScanNode][]*col.Batch{codedP: codedProbe(), codedB: codedBuild()}
		if jc.empty {
			data[codedB] = nil
		}
		joined := codedJoinRef(t, data[codedP], data[codedB], jc.kind, pk, bk, join.Residual)
		label := fmt.Sprintf("%s join, string key %v, residual %v, empty build %v", join.Kind, jc.strKey, jc.residual, jc.empty)
		if joined.N == 0 && !jc.empty {
			t.Fatalf("%s: the reference join is empty", label)
		}

		env := chainEnv(data)
		builds, err := PrepareBuilds(join, env)
		if err != nil {
			t.Fatal(err)
		}
		env.JoinBuilds = builds
		build := builds[join].batch.Vecs[1]
		if jc.empty != (build.Codes == nil) {
			t.Fatalf("%s: the build's name column has codes %v over %d rows", label, build.Codes, build.N)
		}
		if !jc.empty {
			sameDistinctDict(t, label, build, data[codedB], 1)
			sameDistinctDict(t, label, builds[join].batch.Vecs[2], data[codedB], 2)
		}
		// Every batch the probe emits shares the build's dictionary.
		op, err := BuildWith(join, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		for {
			out, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if out == nil {
				break
			}
			if name := out.Vecs[jBName]; name.Codes == nil != jc.empty || !jc.empty && !col.SameDict(name.Dict, build.Dict) {
				t.Fatalf("%s: the join's output name column is not coded under the build's dictionary: %+v", label, name)
			}
		}
		op.Close()

		for uname, upper := range codedUppers {
			want, err := oracle.Run(upper(codedJ), func(*plan.ScanNode) (*col.Batch, error) { return joined, nil })
			if err != nil {
				t.Fatal(err)
			}
			op, err := BuildWith(upper(join), env)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := batchRows(got), batchRows(want); !slices.Equal(g, w) {
				t.Fatalf("%s, %s:\n got  %q\n want %q", label, uname, g, w)
			}
		}
	}
}

// sameDistinctDict fails unless the coded build column v holds, as its
// dictionary, the distinct values of column c of the collected batches in
// first-appearance order, a NULL row's value being the zero value, each
// once, and unless every row's code reads that row's value.
func sameDistinctDict(t *testing.T, label string, v *col.Vector, batches []*col.Batch, c int) {
	t.Helper()
	var rows, want []string
	for _, b := range batches {
		for r := 0; r < b.N; r++ {
			s := ""
			if !b.Vecs[c].IsNull(r) {
				s = b.Vecs[c].Str(r)
			}
			rows = append(rows, s)
			if !slices.Contains(want, s) {
				want = append(want, s)
			}
		}
	}
	if !slices.Equal(v.Dict, want) {
		t.Fatalf("%s: the build's dictionary is %q, want its distinct values %q", label, v.Dict, want)
	}
	if len(want) == len(rows) {
		t.Fatalf("%s: the build column holds no duplicate value", label)
	}
	for r, s := range rows {
		if v.Dict[v.Codes[r]] != s {
			t.Fatalf("%s: row %d is coded %d, %q, want %q", label, r, v.Codes[r], v.Dict[v.Codes[r]], s)
		}
	}
}

// batchRows renders every row of b bit for bit, in order.
func batchRows(b *col.Batch) []string {
	out := make([]string, b.N)
	for r := range out {
		out[r] = rowString(b.Row(r))
	}
	return out
}
