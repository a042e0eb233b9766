package oracle

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/col"
	"repro/internal/plan"
)

// Agg is the row-at-a-time aggregation reference: every input row is boxed
// into a col.Value and folded with Value.Compare, the way aggregation was
// defined before the typed folds. COUNT(*) counts NULLs, every other
// aggregate skips them; integer SUM keeps both sums; DISTINCT dedupes on
// GROUP BY equality (-0.0 = 0.0, NaN = NaN); groups come out in first-
// appearance order and an empty global input gives one row. Group keys and
// aggregate arguments must be column references into rows; Run evaluates
// computed ones first.
func Agg(node *plan.AggNode, rows [][]col.Value) [][]col.Value {
	type state struct {
		count    int64
		sumI     int64
		sumF     float64
		min, max col.Value
		hasMM    bool
		seen     map[string]bool
	}
	type group struct {
		keys   []col.Value
		states []state
	}
	var groups []*group
	byKey := map[string]*group{}
	newGroup := func(keys []col.Value) *group {
		g := &group{keys: keys, states: make([]state, len(node.Aggs))}
		groups = append(groups, g)
		return g
	}
	if len(node.GroupBy) == 0 {
		byKey[""] = newGroup(nil)
	}
	for _, row := range rows {
		keys := make([]col.Value, len(node.GroupBy))
		k := ""
		for i, g := range node.GroupBy {
			keys[i] = row[g.(*plan.BCol).Ordinal]
			k += canonKey(keys[i]) + "|"
		}
		g := byKey[k]
		if g == nil {
			g = newGroup(keys)
			byKey[k] = g
		}
		for i := range node.Aggs {
			spec, st := &node.Aggs[i], &g.states[i]
			if spec.Func == plan.AggCountStar {
				st.count++
				continue
			}
			v := row[spec.Arg.(*plan.BCol).Ordinal]
			if v.Null {
				continue
			}
			if spec.Distinct {
				if st.seen == nil {
					st.seen = map[string]bool{}
				}
				if st.seen[canonKey(v)] {
					continue
				}
				st.seen[canonKey(v)] = true
			}
			st.count++
			switch spec.Func {
			case plan.AggSum, plan.AggAvg:
				if v.Type == col.FLOAT64 {
					st.sumF += v.F
				} else {
					st.sumI += v.I
					st.sumF += float64(v.I)
				}
			case plan.AggMin, plan.AggMax:
				if !st.hasMM {
					st.min, st.max, st.hasMM = v, v, true
					continue
				}
				if v.Compare(st.min) < 0 {
					st.min = v
				}
				if v.Compare(st.max) > 0 {
					st.max = v
				}
			}
		}
	}
	out := make([][]col.Value, 0, len(groups))
	for _, g := range groups {
		row := append([]col.Value(nil), g.keys...)
		for i := range node.Aggs {
			spec, st := &node.Aggs[i], &g.states[i]
			var v col.Value
			switch spec.Func {
			case plan.AggCountStar, plan.AggCount:
				v = col.Int(st.count)
			case plan.AggSum:
				switch {
				case st.count == 0:
					v = col.NullValue(spec.Ty)
				case spec.Ty == col.INT64:
					v = col.Int(st.sumI)
				default:
					v = col.Float(st.sumF)
				}
			case plan.AggAvg:
				v = col.NullValue(col.FLOAT64)
				if st.count > 0 {
					v = col.Float(st.sumF / float64(st.count))
				}
			case plan.AggMin:
				v = col.NullValue(spec.Ty)
				if st.hasMM {
					v = st.min
				}
			case plan.AggMax:
				v = col.NullValue(spec.Ty)
				if st.hasMM {
					v = st.max
				}
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out
}

// canonKey renders a value under GROUP BY equality.
func canonKey(v col.Value) string {
	switch {
	case v.Null:
		return "NULL"
	case v.Type == col.FLOAT64 && v.F == 0:
		return "f:0"
	case v.Type == col.FLOAT64 && v.F != v.F:
		return "f:NaN"
	case v.Type == col.FLOAT64:
		return "f:" + strconv.FormatUint(math.Float64bits(v.F), 16)
	case v.Type == col.STRING || v.Type == col.BOOL:
		return fmt.Sprintf("%d:%s", v.Type, v.String())
	}
	// INT64, DATE, TIMESTAMP: the raw integer, since a timestamp prints at
	// a coarser grain than it is stored.
	return fmt.Sprintf("%d:%d", v.Type, v.I)
}

// SameValue is bit-exact equality: floats compare by math.Float64bits, so
// -0.0 ≠ 0.0. Any two NaNs are equal: Go leaves the payload of NaN + NaN
// to the compiler's operand order.
func SameValue(a, b col.Value) bool {
	if a.Null || b.Null {
		return a.Null == b.Null
	}
	if a.Type != b.Type {
		return false
	}
	if a.Type == col.FLOAT64 {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || (a.F != a.F && b.F != b.F)
	}
	return a.Equal(b)
}
