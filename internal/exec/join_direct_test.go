package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// intKey builds an integer-typed key vector; a nil cell is NULL over the
// garbage value 3, which is a live key of most cases below.
func intKey(ty col.Type, cells ...any) *col.Vector {
	v := col.NewVector(ty, len(cells))
	for r, c := range cells {
		if c == nil {
			v.SetNull(r)
			v.Ints[r] = 3
			continue
		}
		v.Ints[r] = int64(c.(int))
	}
	return v
}

// matchRef is the nested-loop reference: for each probe row, the build
// rows whose key equals it, in build order. NULLs never match, nor do keys
// of different types.
func matchRef(build, probe *col.Vector) [][]int32 {
	out := make([][]int32, probe.N)
	for i := range out {
		for r := 0; r < build.N; r++ {
			if build.Type == probe.Type && !build.IsNull(r) && !probe.IsNull(i) && build.Ints[r] == probe.Ints[i] {
				out[i] = append(out[i], int32(r))
			}
		}
	}
	return out
}

// chains probes t with every row of probe and follows each chain.
func chains(t *joinTable, probe *col.Vector) [][]int32 {
	var h keyHasher
	var buf []int32
	out := make([][]int32, probe.N)
	for i, m := range t.probe([]*col.Vector{probe}, probe.N, &h, &buf) {
		for ; m >= 0; m = t.next[m] {
			out[i] = append(out[i], m)
		}
	}
	return out
}

// TestJoinTableLayoutsMatchNestedLoop builds the direct and the hashed
// layout over the same integer build keys and checks both against a
// nested loop: chains in build order from probe, the rows semiJoin keeps,
// and inner and LEFT joins through HashJoinOp, probed by four workers that
// share one build. The cases cover negative keys, keys at the ends of
// int64 where an int64 span overflows, a span of exactly 16 per row and
// one past it, NULL build and probe keys, duplicates, misses below and
// above the key range, a DATE probe against an INT64 build, an empty build
// and one whose keys are all NULL.
func TestJoinTableLayoutsMatchNestedLoop(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	cases := []struct {
		name         string
		build, probe *col.Vector
		direct       bool // the build fits the direct layout
	}{
		{"negative", intKey(col.INT64, -5, -3, -3, 0, 2), intKey(col.INT64, -6, -5, -3, 0, 1, 2, 3), true},
		{"int64 ends", intKey(col.INT64, lo, hi, lo, 0), intKey(col.INT64, lo, hi, 0, -1, lo+1, hi-1), false},
		{"top of int64", intKey(col.INT64, hi-1, hi, hi), intKey(col.INT64, hi, lo, hi-2, hi-1, 0), true},
		{"bottom of int64", intKey(col.INT64, lo+1, lo, lo), intKey(col.INT64, hi, lo, lo+2, lo+1, -1), true},
		{"span 16 per row", intKey(col.INT64, 0, 10, 20, 63), intKey(col.INT64, 63, 64, 0, -1, 20, 21), true},
		{"span past 16 per row", intKey(col.INT64, 0, 10, 20, 64), intKey(col.INT64, 64, 63, 0, -1, 20), false},
		{"nulls", intKey(col.INT64, 3, nil, 4, nil, 5), intKey(col.INT64, 3, nil, 4, nil, 5, 6), true},
		{"duplicates", intKey(col.INT64, 7, 5, 7, 7, 5, 6), intKey(col.INT64, 5, 6, 7, 7, 8), true},
		{"misses", intKey(col.INT64, 10, 12, 14, 20), intKey(col.INT64, 9, -100, 21, 1<<40, 10, 20, 13), true},
		{"date probe int64 build", intKey(col.INT64, 1, 2, 3), intKey(col.DATE, 1, 2, 3), true},
		{"timestamps", intKey(col.TIMESTAMP, 9_000_000_000, 9_000_000_002), intKey(col.TIMESTAMP, 9_000_000_002, 9_000_000_001, 9_000_000_000), true},
		{"empty build", intKey(col.INT64), intKey(col.INT64, 0, 1, 3), true},
		{"all NULL build", intKey(col.INT64, nil, nil), intKey(col.INT64, 0, 3, nil), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys, n := []*col.Vector{tc.build}, tc.build.N
			want := matchRef(tc.build, tc.probe)
			var h keyHasher
			layouts := map[string]*joinTable{"hashed": newHashedTable(keys, n, h.hash(keys, n))}
			if direct := newDirectTable(keys, n); direct != nil {
				layouts["direct"] = direct
			}
			if _, ok := layouts["direct"]; ok != tc.direct {
				t.Fatalf("direct layout built = %v, want %v", ok, tc.direct)
			}
			if got := newJoinTable(keys, n).direct != nil; got != (directJoins && tc.direct) {
				t.Fatalf("newJoinTable direct = %v, want %v", got, directJoins && tc.direct)
			}
			for name, table := range layouts {
				if got := chains(table, tc.probe); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
					t.Fatalf("%s chains %v, want %v", name, got, want)
				}
				semi := semiJoin(col.NewBatch(tc.probe), []int{0}, table)
				var wantSemi []string
				for i, m := range want {
					if len(m) > 0 {
						wantSemi = append(wantSemi, tc.probe.Value(i).String())
					}
				}
				if got := rowsOf(semi); !slices.Equal(got, wantSemi) {
					t.Fatalf("%s semiJoin %v, want %v", name, got, wantSemi)
				}
				for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
					expectJoinRows(t, fmt.Sprintf("%s %v", name, kind), kind, tc.build, tc.probe, table, want)
				}
			}
		})
	}
}

// expectJoinRows joins probe to build through table, in four HashJoinOps
// at once over one shared build, and checks each against want, the
// reference chains, in probe and build order.
func expectJoinRows(t *testing.T, what string, kind plan.JoinKind, build, probe *col.Vector, table *joinTable, want [][]int32) {
	t.Helper()
	var wantRows []string
	for i, m := range want {
		if len(m) == 0 && kind == plan.JoinLeft {
			wantRows = append(wantRows, probe.Value(i).String()+"|NULL")
		}
		for _, r := range m {
			wantRows = append(wantRows, probe.Value(i).String()+"|"+build.Value(int(r)).String())
		}
	}
	ps := col.NewSchema(col.Field{Name: "p", Type: probe.Type, Nullable: true})
	bs := col.NewSchema(col.Field{Name: "b", Type: build.Type, Nullable: true})
	node := &plan.JoinNode{Kind: kind, Left: fakeNode(ps), Right: fakeNode(bs),
		LeftKeys: []plan.BoundExpr{colRef(0, probe.Type)}, RightKeys: []plan.BoundExpr{colRef(0, build.Type)}}
	jb := &JoinBuild{node: node, batch: col.NewBatch(build), table: table}
	var wg sync.WaitGroup
	got := make([][]string, 4)
	errs := make([]error, len(got))
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, err := NewHashJoinOp(node, sliceSource(ps, col.NewBatch(probe)), jb)
			if err == nil {
				var out *col.Batch
				if out, err = Collect(op); err == nil {
					got[w] = rowsOf(out)
				}
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatalf("%s: worker %d: %v", what, w, errs[w])
		}
		if !slices.Equal(got[w], wantRows) {
			t.Fatalf("%s: worker %d rows %q, want %q", what, w, got[w], wantRows)
		}
	}
}
