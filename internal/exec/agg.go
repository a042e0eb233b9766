package exec

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/col"
	"repro/internal/plan"
	"repro/internal/vec"
)

// HashAggOp implements grouped and global aggregation. Each batch is folded
// column-at-a-time into typed accumulators: group keys and aggregate
// arguments are evaluated once, group ids are assigned through the typed
// group table (a global aggregation has exactly one group and skips it),
// and every aggregate then runs one typed loop over the batch into its
// columnar state. No per-row or per-group col.Value is built: the output
// vectors are the accumulators' slices.
type HashAggOp struct {
	node  *plan.AggNode
	child Operator
	keys  []valueProg // one per GROUP BY expression
	args  []valueProg // one per aggregate; nil prog for COUNT(*)

	// Per-Open state, reused from batch to batch.
	table   *groupTable // nil for a global aggregation
	accs    []accum     // one per aggregate
	seen    []*groupTable
	keyVecs []*col.Vector
	argVecs []*col.Vector
	gids    col.Vector // row → group id

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

// Open implements Operator: it drains the child and builds the groups.
func (a *HashAggOp) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	a.reset()
	for {
		b, err := a.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := a.add(b); err != nil {
			return err
		}
	}
	a.out = a.result()
	a.table, a.accs, a.seen = nil, nil, nil // out keeps what it needs
	return nil
}

// reset starts an aggregation with no input: no groups when grouped, the
// one global group otherwise. Groups are dense ids handed out by the typed
// table in first-appearance order; the table's accumulated key columns
// double as the output key vectors.
func (a *HashAggOp) reset() {
	a.done = false
	a.table = nil
	ngroups := 1
	if len(a.node.GroupBy) > 0 {
		keyTypes := make([]col.Type, len(a.node.GroupBy))
		for i, g := range a.node.GroupBy {
			keyTypes[i] = g.Type()
		}
		a.table = newGroupTable(keyTypes)
		ngroups = 0
	}
	a.accs = make([]accum, len(a.node.Aggs))
	for i := range a.accs {
		a.accs[i] = accum{spec: &a.node.Aggs[i]}
		a.accs[i].grow(ngroups)
	}
	a.seen = make([]*groupTable, len(a.node.Aggs)) // DISTINCT seen-sets
	a.keyVecs = make([]*col.Vector, len(a.node.GroupBy))
	a.argVecs = make([]*col.Vector, len(a.node.Aggs))
	a.gids = col.Vector{Type: col.INT64}
}

// add folds one batch into the groups. An empty batch folds nothing; it
// returns at once, since with no ids a COUNT(*) would fold into group 0,
// which a grouped aggregation may not have yet.
func (a *HashAggOp) add(b *col.Batch) error {
	if b.N == 0 {
		return nil
	}
	var err error
	// Evaluate group keys and aggregate arguments once per batch.
	for i := range a.keys {
		if a.keyVecs[i], err = a.keys[i].eval(b); err != nil {
			return err
		}
	}
	for i := range a.args {
		a.argVecs[i] = nil
		if a.args[i].prog == nil {
			continue
		}
		if a.argVecs[i], err = a.args[i].eval(b); err != nil {
			return err
		}
	}
	var ids []int64 // row → group id; nil for the one global group
	if a.table != nil {
		a.gids.Ints = a.table.assignGroups(a.keyVecs, b.N, a.gids.Ints[:0])
		a.gids.N = b.N
		ids = a.gids.Ints
		for i := range a.accs {
			a.accs[i].grow(a.table.n)
		}
	}
	for i := range a.accs {
		v, fids, n := a.argVecs[i], ids, b.N
		if a.accs[i].spec.Distinct && v != nil {
			keys, types := []*col.Vector{v}, []col.Type{v.Type}
			if ids != nil {
				keys, types = []*col.Vector{&a.gids, v}, []col.Type{col.INT64, v.Type}
			}
			if a.seen[i] == nil {
				a.seen[i] = newGroupTable(types)
			}
			v, fids = firstSeen(a.seen[i], keys, ids, n)
			n = v.N
		}
		a.accs[i].fold(fids, v, n)
	}
	return nil
}

// result builds the output batch: the group keys, then one vector per
// aggregate made from its accumulator's slices.
func (a *HashAggOp) result() *col.Batch {
	ng := len(a.node.GroupBy)
	vecs := make([]*col.Vector, ng+len(a.accs))
	n := 1
	if a.table != nil {
		copy(vecs, a.table.keys)
		n = a.table.n
	}
	for i := range a.accs {
		vecs[ng+i] = a.accs[i].vector(n)
	}
	return &col.Batch{Vecs: vecs, N: n}
}

// firstSeen narrows one batch of a DISTINCT aggregate's argument — the
// last of keys, which the group id leads when grouped — to the non-NULL
// rows whose key the aggregate's seen-set has not met before. The seen-set
// is a groupTable, so DISTINCT shares GROUP BY's and joins' equality (-0.0
// and 0.0 are one value, as are all NaNs). A row is the first of its key
// exactly when the set hands it the next new id. It returns the surviving
// rows and their group ids (nil when ids is nil).
func firstSeen(seen *groupTable, keys []*col.Vector, ids []int64, n int) (*col.Vector, []int64) {
	v := keys[len(keys)-1]
	fresh := int64(seen.n)
	var sel []int
	for r, id := range seen.assignGroups(keys, n, nil) {
		if id != fresh {
			continue
		}
		fresh++
		if !v.IsNull(r) {
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

// accum is one aggregate's running state, columnar: slot g of each slice
// belongs to group g. It holds only the slices its function and argument
// type use:
//   - COUNT and COUNT(*): count;
//   - SUM over INT64: count and sumI;
//   - other SUMs and AVG: count and sumF;
//   - MIN and MAX: hasMM plus the extremum of the argument's type, extB
//     (BOOL), extI (INT64, DATE, TIMESTAMP), extF (FLOAT64) or extS
//     (STRING, the only accumulator holding strings).
type accum struct {
	spec  *plan.AggSpec
	count []int64
	sumI  []int64
	sumF  []float64
	hasMM []bool
	extB  []bool
	extI  []int64
	extF  []float64
	extS  []string
	strs  []string // a dictionary-coded argument's rows, reused
}

// grow gives every slice the accumulator uses n slots, new groups' zeroed.
func (a *accum) grow(n int) {
	switch a.spec.Func {
	case plan.AggCountStar, plan.AggCount:
		a.count = extend(a.count, n)
	case plan.AggSum, plan.AggAvg:
		a.count = extend(a.count, n)
		if a.intSum() {
			a.sumI = extend(a.sumI, n)
		} else {
			a.sumF = extend(a.sumF, n)
		}
	case plan.AggMin, plan.AggMax:
		a.hasMM = extend(a.hasMM, n)
		switch a.spec.Ty {
		case col.BOOL:
			a.extB = extend(a.extB, n)
		case col.FLOAT64:
			a.extF = extend(a.extF, n)
		case col.STRING:
			a.extS = extend(a.extS, n)
		default:
			a.extI = extend(a.extI, n)
		}
	}
}

// intSum reports an integer SUM, the one sum kept as an int64.
func (a *accum) intSum() bool { return a.spec.Func == plan.AggSum && a.spec.Ty == col.INT64 }

// extend grows s to n elements, zeroing the new ones. It never returns nil,
// so an empty output vector has its typed slice.
func extend[T any](s []T, n int) []T {
	if s == nil {
		s = []T{}
	}
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// fold adds the first n rows of v (nil for COUNT(*)) to the accumulator;
// ids[r] is row r's group, or nil when there is only group 0. There is one
// typed loop per (function, vector type) and rows fold in arrival order, so
// float sums are bit-identical however the input was cut into batches.
// NULL inputs are skipped.
func (a *accum) fold(ids []int64, v *col.Vector, n int) {
	if a.spec.Func == plan.AggCountStar { // counts NULLs too
		if ids == nil {
			a.count[0] += int64(n)
			return
		}
		for _, g := range ids[:n] {
			a.count[g]++
		}
		return
	}
	valid := v.Valid
	if valid != nil {
		valid = valid[:n]
	}
	switch a.spec.Func {
	case plan.AggCount:
		if ids == nil && valid == nil {
			a.count[0] += int64(n)
			return
		}
		for r := 0; r < n; r++ {
			if valid == nil || valid[r] {
				a.count[group(ids, r)]++
			}
		}
	case plan.AggSum, plan.AggAvg:
		switch {
		case v.Type == col.FLOAT64:
			sum(a.count, a.sumF, ids, v.Floats[:n], valid)
		case a.intSum():
			sum(a.count, a.sumI, ids, v.Ints[:n], valid)
		default:
			sum(a.count, a.sumF, ids, v.Ints[:n], valid)
		}
	case plan.AggMin, plan.AggMax:
		min := a.spec.Func == plan.AggMin
		switch v.Type {
		case col.BOOL:
			// false < true: MIN is AND, MAX is OR.
			for r, x := range v.Bools[:n] {
				if valid != nil && !valid[r] {
					continue
				}
				g := group(ids, r)
				switch {
				case !a.hasMM[g]:
					a.extB[g], a.hasMM[g] = x, true
				case min:
					a.extB[g] = a.extB[g] && x
				default:
					a.extB[g] = a.extB[g] || x
				}
			}
		case col.FLOAT64:
			extremum(a.hasMM, a.extF, ids, v.Floats[:n], valid, min, nil)
		case col.STRING:
			// Extrema outlive the batch, and decoded strings alias
			// per-chunk backing blobs: clone exactly when an extremum
			// changes, so one retained value never pins its whole chunk.
			xs := v.Strings(a.strs)
			if v.Codes != nil {
				a.strs = xs
			}
			extremum(a.hasMM, a.extS, ids, xs[:n], valid, min, strings.Clone)
		default:
			extremum(a.hasMM, a.extI, ids, v.Ints[:n], valid, min, nil)
		}
	}
}

// group is row r's group id.
func group(ids []int64, r int) int64 {
	if ids == nil {
		return 0
	}
	return ids[r]
}

// sum folds the non-NULL xs into their groups' counts and sums.
func sum[T, S int64 | float64](count []int64, sums []S, ids []int64, xs []T, valid []bool) {
	for r, x := range xs {
		if valid != nil && !valid[r] {
			continue
		}
		g := group(ids, r)
		count[g]++
		sums[g] += S(x)
	}
}

// extremum folds the non-NULL xs into their groups' minimum (min) or
// maximum, storing keep(x) when keep is non-nil. Plain < and > mirror
// col.Value.Compare's ordering exactly, NaN included: a NaN candidate never
// displaces an extremum, and a NaN first value is never displaced.
func extremum[T cmp.Ordered](has []bool, ext []T, ids []int64, xs []T, valid []bool, min bool, keep func(T) T) {
	for r, x := range xs {
		if valid != nil && !valid[r] {
			continue
		}
		if g := group(ids, r); !has[g] || min && x < ext[g] || !min && x > ext[g] {
			if keep != nil {
				x = keep(x)
			}
			ext[g], has[g] = x, true
		}
	}
}

// vector is the aggregate's output over n groups, built on the
// accumulator's slices: COUNT is never NULL, SUM/AVG are NULL over zero
// non-NULL inputs and MIN/MAX over none. A NULL row holds the zero value,
// as the slots of a group that folded nothing are still zero.
func (a *accum) vector(n int) *col.Vector {
	out := &col.Vector{Type: a.spec.Ty, N: n}
	switch a.spec.Func {
	case plan.AggCountStar, plan.AggCount:
		out.Ints = a.count[:n]
	case plan.AggSum, plan.AggAvg:
		count := a.count[:n]
		if slices.Contains(count, 0) {
			out.Valid = make([]bool, n)
			for g, c := range count {
				out.Valid[g] = c > 0
			}
		}
		if a.intSum() {
			out.Ints = a.sumI[:n]
			break
		}
		out.Floats = a.sumF[:n]
		if a.spec.Func == plan.AggAvg {
			for g, c := range count {
				if c > 0 {
					out.Floats[g] /= float64(c)
				}
			}
		}
	case plan.AggMin, plan.AggMax:
		if slices.Contains(a.hasMM[:n], false) {
			out.Valid = a.hasMM[:n]
		}
		out.Bools, out.Ints, out.Floats, out.Strs = a.extB, a.extI, a.extF, a.extS
	}
	return out
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
