package exec

import (
	"strings"

	"repro/internal/col"
	"repro/internal/plan"
	"repro/internal/vec"
)

// HashAggOp implements grouped and global aggregation. Each batch is folded
// column-at-a-time into typed accumulators: group keys and aggregate
// arguments are evaluated once, group ids are assigned through the typed
// group table (a global aggregation has exactly one group and skips it),
// and every aggregate then runs one typed loop over the batch. No per-row
// col.Value is built; values appear only in the final per-group output.
type HashAggOp struct {
	node  *plan.AggNode
	child Operator
	keys  []valueProg // one per GROUP BY expression
	args  []valueProg // one per aggregate; nil prog for COUNT(*)

	out  *col.Batch
	done bool
}

// NewHashAggOp builds a hash-aggregation operator, compiling its group keys
// and aggregate arguments.
func NewHashAggOp(node *plan.AggNode, child Operator) (*HashAggOp, error) {
	keys, err := compileValues(node.GroupBy)
	if err != nil {
		return nil, err
	}
	args := make([]valueProg, len(node.Aggs))
	for i, spec := range node.Aggs {
		if spec.Arg == nil {
			continue
		}
		if args[i].prog, err = vec.CompileValue(spec.Arg); err != nil {
			return nil, err
		}
	}
	return &HashAggOp{node: node, child: child, keys: keys, args: args}, nil
}

// Schema implements Operator.
func (a *HashAggOp) Schema() *col.Schema { return a.node.Schema() }

// aggState is the running state of one aggregate within one group. COUNT
// counts non-NULL inputs (COUNT(*) counts rows); SUM/AVG over integers
// accumulate both sums so AVG divides the float one; MIN/MAX track both
// extrema in the field matching the argument's vector.
type aggState struct {
	count      int64
	sumI       int64
	sumF       float64
	hasMM      bool
	minI, maxI int64 // INT64, DATE, TIMESTAMP; BOOL as 0/1
	minF, maxF float64
	minS, maxS string
}

// Open implements Operator: it drains the child and builds the groups.
func (a *HashAggOp) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	a.done = false

	aggs := a.node.Aggs
	grouped := len(a.node.GroupBy) > 0
	// Groups are dense ids handed out by the typed table in first-
	// appearance order; the table's accumulated key columns double as the
	// output key vectors.
	var table *groupTable
	ngroups := 1
	if grouped {
		keyTypes := make([]col.Type, len(a.node.GroupBy))
		for i, g := range a.node.GroupBy {
			keyTypes[i] = g.Type()
		}
		table = newGroupTable(keyTypes)
		ngroups = 0
	}
	states := make([][]aggState, len(aggs)) // [aggregate][group id]
	for i := range states {
		states[i] = make([]aggState, ngroups)
	}
	seen := make([]*groupTable, len(aggs)) // DISTINCT seen-sets

	keyVecs := make([]*col.Vector, len(a.node.GroupBy))
	argVecs := make([]*col.Vector, len(aggs))
	gids := &col.Vector{Type: col.INT64}
	var tuples []int32 // assignGroups' reused code-tuple table
	for {
		b, err := a.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		// Evaluate group keys and aggregate arguments once per batch.
		for i := range a.keys {
			if keyVecs[i], err = a.keys[i].eval(b); err != nil {
				return err
			}
		}
		for i := range a.args {
			argVecs[i] = nil
			if a.args[i].prog == nil {
				continue
			}
			if argVecs[i], err = a.args[i].eval(b); err != nil {
				return err
			}
		}
		var ids []int64 // row → group id; nil for the one global group
		if grouped {
			gids.Ints, tuples = table.assignGroups(keyVecs, b.N, gids.Ints[:0], tuples)
			gids.N = b.N
			ids = gids.Ints
			for i := range states {
				for len(states[i]) < table.n {
					states[i] = append(states[i], aggState{})
				}
			}
		}
		for i := range aggs {
			v, fids, n := argVecs[i], ids, b.N
			if aggs[i].Distinct && v != nil {
				keys, types := []*col.Vector{v}, []col.Type{v.Type}
				if grouped {
					keys, types = []*col.Vector{gids, v}, []col.Type{col.INT64, v.Type}
				}
				if seen[i] == nil {
					seen[i] = newGroupTable(types)
				}
				v, fids = firstSeen(seen[i], keys, ids, n)
				n = v.N
			}
			fold(states[i], fids, aggs[i].Func, v, n)
		}
	}

	schema := a.Schema()
	ng := len(a.node.GroupBy)
	vecs := make([]*col.Vector, schema.Len())
	if grouped {
		copy(vecs, table.keys)
		ngroups = table.n
	}
	for i := range aggs {
		out := col.NewVector(schema.Fields[ng+i].Type, ngroups)
		for g, st := range states[i] {
			out.Set(g, st.result(&aggs[i]))
		}
		vecs[ng+i] = out
	}
	a.out = &col.Batch{Vecs: vecs, N: ngroups}
	return nil
}

// firstSeen narrows one batch of a DISTINCT aggregate's argument — the
// last of keys, which the group id leads when grouped — to the non-NULL
// rows whose key the aggregate's seen-set has not met before. The seen-set
// is a groupTable, so DISTINCT shares GROUP BY's and joins' equality (-0.0
// and 0.0 are one value, as are all NaNs). It returns the surviving rows
// and their group ids (nil when ids is nil).
func firstSeen(seen *groupTable, keys []*col.Vector, ids []int64, n int) (*col.Vector, []int64) {
	v := keys[len(keys)-1]
	var sel []int
	for r := 0; r < n; r++ {
		if v.IsNull(r) {
			continue
		}
		if _, added := seen.findOrAdd(keys, r); added {
			sel = append(sel, r)
		}
	}
	if ids == nil {
		return v.Gather(sel), nil
	}
	sids := make([]int64, len(sel))
	for j, r := range sel {
		sids[j] = ids[r]
	}
	return v.Gather(sel), sids
}

// fold adds the first n rows of v (nil for COUNT(*)) to one aggregate's
// per-group states; ids[r] is row r's group, or nil when there is only
// group 0. There is one typed loop per (function, vector type) and rows
// fold in arrival order, so float sums are bit-identical however the
// input was cut into batches. NULL inputs are skipped.
func fold(sts []aggState, ids []int64, fn plan.AggFunc, v *col.Vector, n int) {
	if fn == plan.AggCountStar { // counts NULLs too
		if ids == nil {
			sts[0].count += int64(n)
			return
		}
		for _, g := range ids[:n] {
			sts[g].count++
		}
		return
	}
	valid := v.Valid
	st := &sts[0]
	switch fn {
	case plan.AggCount:
		if ids == nil && valid == nil {
			st.count += int64(n)
			return
		}
		for r := 0; r < n; r++ {
			if valid != nil && !valid[r] {
				continue
			}
			if ids != nil {
				st = &sts[ids[r]]
			}
			st.count++
		}
	case plan.AggSum, plan.AggAvg:
		switch v.Type {
		case col.FLOAT64:
			for r, x := range v.Floats[:n] {
				if valid != nil && !valid[r] {
					continue
				}
				if ids != nil {
					st = &sts[ids[r]]
				}
				st.count++
				st.sumF += x
			}
		case col.INT64:
			for r, x := range v.Ints[:n] {
				if valid != nil && !valid[r] {
					continue
				}
				if ids != nil {
					st = &sts[ids[r]]
				}
				st.count++
				st.sumI += x
				st.sumF += float64(x)
			}
		}
	case plan.AggMin, plan.AggMax:
		switch v.Type {
		case col.INT64, col.DATE, col.TIMESTAMP:
			for r, x := range v.Ints[:n] {
				if valid != nil && !valid[r] {
					continue
				}
				if ids != nil {
					st = &sts[ids[r]]
				}
				st.extI(x)
			}
		case col.BOOL:
			for r, b := range v.Bools[:n] {
				if valid != nil && !valid[r] {
					continue
				}
				if ids != nil {
					st = &sts[ids[r]]
				}
				var x int64
				if b {
					x = 1
				}
				st.extI(x)
			}
		case col.FLOAT64:
			// Plain < and > mirror col.Value.Compare's float ordering
			// exactly, NaN included: a NaN candidate never displaces an
			// extremum, and a NaN first value is never displaced.
			for r, x := range v.Floats[:n] {
				if valid != nil && !valid[r] {
					continue
				}
				if ids != nil {
					st = &sts[ids[r]]
				}
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
		case col.STRING:
			// Extrema outlive the batch, and decoded strings alias per-chunk
			// backing blobs: clone exactly when an extremum changes, so one
			// retained value never pins its whole chunk.
			for r := 0; r < n; r++ {
				if valid != nil && !valid[r] {
					continue
				}
				x := v.Str(r)
				if ids != nil {
					st = &sts[ids[r]]
				}
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
	}
}

// extI folds one integer-backed value into the extrema.
func (st *aggState) extI(x int64) {
	if !st.hasMM {
		st.minI, st.maxI, st.hasMM = x, x, true
		return
	}
	if x < st.minI {
		st.minI = x
	}
	if x > st.maxI {
		st.maxI = x
	}
}

// result is the aggregate's output value: COUNT is never NULL, SUM/AVG are
// NULL over zero non-NULL inputs and MIN/MAX over none.
func (st *aggState) result(spec *plan.AggSpec) col.Value {
	switch spec.Func {
	case plan.AggCountStar, plan.AggCount:
		return col.Int(st.count)
	case plan.AggSum:
		if st.count == 0 {
			return col.NullValue(spec.Ty)
		}
		if spec.Ty == col.INT64 {
			return col.Int(st.sumI)
		}
		return col.Float(st.sumF)
	case plan.AggAvg:
		if st.count == 0 {
			return col.NullValue(col.FLOAT64)
		}
		return col.Float(st.sumF / float64(st.count))
	case plan.AggMin, plan.AggMax:
		if !st.hasMM {
			return col.NullValue(spec.Ty)
		}
		min := spec.Func == plan.AggMin
		switch spec.Ty {
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
		}
		x := st.maxI
		if min {
			x = st.minI
		}
		if spec.Ty == col.BOOL {
			return col.Bool(x != 0)
		}
		return col.Value{Type: spec.Ty, I: x}
	default:
		return col.NullValue(spec.Ty)
	}
}

// Next implements Operator.
func (a *HashAggOp) Next() (*col.Batch, error) {
	if a.done || a.out == nil {
		return nil, nil
	}
	a.done = true
	return a.out, nil
}

// Close implements Operator.
func (a *HashAggOp) Close() error {
	a.out = nil
	return a.child.Close()
}
