package engine

import (
	"context"
	"strings"

	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/plan"
)

// fusedAggScan builds the hook exec.BuildWith consults when a group-free
// AggNode sits directly on a ScanNode: instead of scan → batches →
// HashAggOp, a single fused operator folds the scan's filtered batches
// columnar into typed accumulators — no per-row Value boxing and no group
// table. The batches come from the same iterator scanFactory would hand a
// ScanOp, so rows, stats and billed bytes are identical to the unfused tree
// by construction; the interp and fusedOff test hooks disable it.
func (e *Engine) fusedAggScan(ctx context.Context, stats *Stats, overrides map[*plan.ScanNode]scanOverride, pipelined map[*plan.ScanNode]bool) func(*plan.AggNode, *plan.ScanNode) (exec.Operator, bool) {
	return func(agg *plan.AggNode, scan *plan.ScanNode) (exec.Operator, bool) {
		if e.interp || e.fusedOff || !fusableAgg(agg, scan) {
			return nil, false
		}
		files := scan.Table.Files
		if ov, ok := overrides[scan]; ok {
			if ov.iter != nil {
				// Batches come from a stream, not files — there is no
				// decode to fuse into.
				return nil, false
			}
			files = ov.files
		}
		sc := e.newScanContext(ctx, scan, files, stats, false)
		newIter := sc.sequential
		if pipelined[scan] && e.prefetch > 0 {
			newIter = func() exec.BatchIterator { return sc.pipelined(e.prefetch) }
		}
		return &fusedAggOp{node: agg, newIter: newIter}, true
	}
}

// fusableAgg reports whether every aggregate of a group-free AggNode is a
// plain COUNT/SUM/MIN/MAX/AVG over a bare scan column (or COUNT(*)) —
// the shapes the typed fold kernels cover. Anything else (groups,
// DISTINCT, expression arguments, MIN/MAX over BOOL) falls back to
// HashAggOp.
func fusableAgg(agg *plan.AggNode, scan *plan.ScanNode) bool {
	if len(agg.GroupBy) != 0 {
		return false
	}
	for i := range agg.Aggs {
		s := &agg.Aggs[i]
		if s.Distinct {
			return false
		}
		switch s.Func {
		case plan.AggCountStar:
			continue
		case plan.AggCount, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax:
		default:
			return false
		}
		c, ok := s.Arg.(*plan.BCol)
		if !ok || c.Ordinal < 0 || c.Ordinal >= len(scan.Cols) {
			return false
		}
		switch s.Func {
		case plan.AggSum, plan.AggAvg:
			if c.Ty != col.INT64 && c.Ty != col.FLOAT64 {
				return false
			}
		case plan.AggMin, plan.AggMax:
			switch c.Ty {
			case col.INT64, col.FLOAT64, col.DATE, col.TIMESTAMP, col.STRING:
			default:
				return false
			}
		}
	}
	return true
}

// fusedAggOp is the fused scan+aggregate operator. Open starts the scan
// and drains it, folding each already-filtered batch in row-group order on
// this goroutine, and Next emits the single result row.
type fusedAggOp struct {
	node    *plan.AggNode
	newIter func() exec.BatchIterator // called at Open, like a ScanOp's

	out  *col.Batch
	done bool
}

// Schema implements exec.Operator.
func (o *fusedAggOp) Schema() *col.Schema { return o.node.Schema() }

// Open implements exec.Operator: it runs the whole fused scan.
func (o *fusedAggOp) Open() error {
	fold := newAggFold(o.node)
	iter := o.newIter()
	for {
		b, err := iter()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		fold.fold(b.Vecs, b.N)
	}
	o.out = fold.result(o.node)
	return nil
}

// Next implements exec.Operator.
func (o *fusedAggOp) Next() (*col.Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	return o.out, nil
}

// Close implements exec.Operator.
func (o *fusedAggOp) Close() error {
	o.out = nil
	return nil
}

// aggFold holds the typed accumulators of one fused aggregation. Fold
// order is row-group order on a single goroutine everywhere the operator
// runs, so float accumulation is bit-identical across serial, pipelined,
// parallel-worker and CF-worker execution.
type aggFold struct {
	specs  []plan.AggSpec
	argPos []int // batch position per spec; -1 for COUNT(*)
	states []fusedState
}

// fusedState mirrors exec's aggState for the fused subset: COUNT counts
// non-null inputs (COUNT(*) counts rows), SUM/AVG accumulate both integer
// and float sums for integer arguments, MIN/MAX track both extrema.
type fusedState struct {
	count      int64
	sumI       int64
	sumF       float64
	hasMM      bool
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
}

func newAggFold(node *plan.AggNode) *aggFold {
	a := &aggFold{
		specs:  node.Aggs,
		argPos: make([]int, len(node.Aggs)),
		states: make([]fusedState, len(node.Aggs)),
	}
	for i := range node.Aggs {
		a.argPos[i] = -1
		if c, ok := node.Aggs[i].Arg.(*plan.BCol); ok {
			a.argPos[i] = c.Ordinal
		}
	}
	return a
}

// fold accumulates the first n rows of one batch.
func (a *aggFold) fold(vecs []*col.Vector, n int) {
	for i := range a.specs {
		spec := &a.specs[i]
		st := &a.states[i]
		if spec.Func == plan.AggCountStar {
			st.count += int64(n) // COUNT(*) counts NULLs too
			continue
		}
		foldVector(st, spec.Func, vecs[a.argPos[i]], n)
	}
}

func foldVector(st *fusedState, fn plan.AggFunc, v *col.Vector, n int) {
	if fn == plan.AggCount {
		if v.Valid == nil {
			st.count += int64(n)
			return
		}
		for r := range n {
			if v.Valid[r] {
				st.count++
			}
		}
		return
	}
	switch v.Type {
	case col.INT64, col.DATE, col.TIMESTAMP:
		foldInts(st, fn, v.Ints, v.Valid, n)
	case col.FLOAT64:
		foldFloats(st, fn, v.Floats, v.Valid, n)
	case col.STRING:
		foldStrs(st, v.Strs, v.Valid, n)
	}
}

func foldInts(st *fusedState, fn plan.AggFunc, vals []int64, valid []bool, n int) {
	switch fn {
	case plan.AggSum, plan.AggAvg:
		if valid == nil {
			for r := range n {
				x := vals[r]
				st.count++
				st.sumI += x
				st.sumF += float64(x)
			}
			return
		}
		for r := range n {
			if !valid[r] {
				continue
			}
			x := vals[r]
			st.count++
			st.sumI += x
			st.sumF += float64(x)
		}
	case plan.AggMin, plan.AggMax:
		for r := range n {
			if valid != nil && !valid[r] {
				continue
			}
			x := vals[r]
			if !st.hasMM {
				st.minI, st.maxI, st.hasMM = x, x, true
				continue
			}
			if x < st.minI {
				st.minI = x
			}
			if x > st.maxI {
				st.maxI = x
			}
		}
	}
}

func foldFloats(st *fusedState, fn plan.AggFunc, vals []float64, valid []bool, n int) {
	switch fn {
	case plan.AggSum, plan.AggAvg:
		for r := range n {
			if valid != nil && !valid[r] {
				continue
			}
			st.count++
			st.sumF += vals[r]
		}
	case plan.AggMin, plan.AggMax:
		// Plain < and > mirror col.Value.Compare's float ordering exactly,
		// NaN included: a NaN candidate never displaces the extremum, and a
		// NaN first value is never displaced.
		for r := range n {
			if valid != nil && !valid[r] {
				continue
			}
			x := vals[r]
			if !st.hasMM {
				st.minF, st.maxF, st.hasMM = x, x, true
				continue
			}
			if x < st.minF {
				st.minF = x
			}
			if x > st.maxF {
				st.maxF = x
			}
		}
	}
}

// foldStrs tracks string extrema (MIN/MAX are the only string folds).
// Retained strings are cloned exactly when the extremum changes, so an
// extremum never pins the decoded chunk it was sliced from.
func foldStrs(st *fusedState, vals []string, valid []bool, n int) {
	for r := range n {
		if valid != nil && !valid[r] {
			continue
		}
		x := vals[r]
		if !st.hasMM {
			x = strings.Clone(x)
			st.minS, st.maxS, st.hasMM = x, x, true
			continue
		}
		if x < st.minS {
			st.minS = strings.Clone(x)
		}
		if x > st.maxS {
			st.maxS = strings.Clone(x)
		}
	}
}

// result builds the one-row output batch, matching HashAggOp's results for
// the same input exactly (COUNT never NULL, SUM/AVG NULL over zero
// non-null inputs, MIN/MAX NULL over none).
func (a *aggFold) result(node *plan.AggNode) *col.Batch {
	schema := node.Schema()
	vecs := make([]*col.Vector, schema.Len())
	for i := range a.specs {
		out := col.NewVector(schema.Fields[i].Type, 1)
		if v, null := a.states[i].value(&a.specs[i]); null {
			out.SetNull(0)
		} else {
			out.Set(0, v)
		}
		vecs[i] = out
	}
	return &col.Batch{Vecs: vecs, N: 1}
}

func (st *fusedState) value(spec *plan.AggSpec) (col.Value, bool) {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return col.Int(st.count), false
	case plan.AggSum:
		if st.count == 0 {
			return col.Value{}, true
		}
		if spec.Ty == col.INT64 {
			return col.Int(st.sumI), false
		}
		return col.Float(st.sumF), false
	case plan.AggAvg:
		if st.count == 0 {
			return col.Value{}, true
		}
		return col.Float(st.sumF / float64(st.count)), false
	case plan.AggMin:
		if !st.hasMM {
			return col.Value{}, true
		}
		return st.extremum(spec.Ty, true), false
	case plan.AggMax:
		if !st.hasMM {
			return col.Value{}, true
		}
		return st.extremum(spec.Ty, false), false
	}
	return col.Value{}, true
}

func (st *fusedState) extremum(ty col.Type, min bool) col.Value {
	switch ty {
	case col.FLOAT64:
		if min {
			return col.Float(st.minF)
		}
		return col.Float(st.maxF)
	case col.STRING:
		if min {
			return col.Str(st.minS)
		}
		return col.Str(st.maxS)
	default: // INT64, DATE, TIMESTAMP
		v := st.minI
		if !min {
			v = st.maxI
		}
		return col.Value{Type: ty, I: v}
	}
}
