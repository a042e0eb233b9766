// Package exec is the vectorized executor: it interprets plan trees with
// pull-based operators (scan, filter, project, hash join, hash aggregation,
// sort, limit), evaluating every bound expression through a program
// internal/vec compiled when the operator was built.
package exec

import (
	"fmt"
	"hash/maphash"

	"repro/internal/col"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/vec"
)

// Operator is a pull-based executor node. Next returns (nil, nil) at end
// of stream.
type Operator interface {
	Schema() *col.Schema
	Open() error
	Next() (*col.Batch, error)
	Close() error
}

// BatchIterator yields batches of a base table; it returns (nil, nil) when
// exhausted. The engine's iterators read pixfiles from the object store and
// apply the node's projection, zone-map pruning and pushed-down filter: the
// batches arrive already filtered and compacted, so no operator evaluates a
// scan's Filter a second time.
type BatchIterator func() (*col.Batch, error)

// ScanOp adapts the BatchIterator its factory opens to an Operator.
type ScanOp struct {
	node    *plan.ScanNode
	newIter func() (BatchIterator, error)
	iter    BatchIterator
}

// newScanOp builds a scan operator. newIter is called at Open, so an
// operator can be re-opened.
func newScanOp(node *plan.ScanNode, newIter func() (BatchIterator, error)) *ScanOp {
	return &ScanOp{node: node, newIter: newIter}
}

// Schema implements Operator.
func (s *ScanOp) Schema() *col.Schema { return s.node.Schema() }

// Open implements Operator.
func (s *ScanOp) Open() error {
	iter, err := s.newIter()
	s.iter = iter
	return err
}

// Next implements Operator.
func (s *ScanOp) Next() (*col.Batch, error) { return s.iter() }

// Close implements Operator.
func (s *ScanOp) Close() error {
	s.iter = nil
	return nil
}

// FilterOp drops rows whose condition is not TRUE.
type FilterOp struct {
	node  *plan.FilterNode
	child Operator
	prog  *vec.Program
	vs    vec.Scratch
}

func newFilterOp(node *plan.FilterNode, child Operator) (*FilterOp, error) {
	prog, err := vec.CompilePredicate(node.Cond)
	if err != nil {
		return nil, err
	}
	return &FilterOp{node: node, child: child, prog: prog}, nil
}

// Schema implements Operator.
func (f *FilterOp) Schema() *col.Schema { return f.node.Schema() }

// Open implements Operator.
func (f *FilterOp) Open() error { return f.child.Open() }

// Next implements Operator.
func (f *FilterOp) Next() (*col.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel, err := f.prog.Select(b, &f.vs)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			continue
		}
		if len(sel) == b.N {
			return b, nil
		}
		return b.Gather(sel), nil
	}
}

// Close implements Operator.
func (f *FilterOp) Close() error { return f.child.Close() }

// valueProg is one compiled expression with the scratch it runs in. Each
// expression owns its Scratch, so programs of different shapes never
// retype each other's slot buffers.
type valueProg struct {
	prog *vec.ValueProgram
	vs   vec.Scratch
}

// compileValues compiles each expression into a valueProg.
func compileValues(exprs []plan.BoundExpr) ([]valueProg, error) {
	out := make([]valueProg, len(exprs))
	for i, e := range exprs {
		prog, err := vec.CompileValue(e)
		if err != nil {
			return nil, err
		}
		out[i].prog = prog
	}
	return out, nil
}

func (p *valueProg) eval(b *col.Batch) (*col.Vector, error) { return p.prog.Eval(b, &p.vs) }

// ProjectOp computes expressions.
type ProjectOp struct {
	node  *plan.ProjectNode
	child Operator
	progs []valueProg
}

func newProjectOp(node *plan.ProjectNode, child Operator) (*ProjectOp, error) {
	progs, err := compileValues(node.Exprs)
	if err != nil {
		return nil, err
	}
	return &ProjectOp{node: node, child: child, progs: progs}, nil
}

// Schema implements Operator.
func (p *ProjectOp) Schema() *col.Schema { return p.node.Schema() }

// Open implements Operator.
func (p *ProjectOp) Open() error { return p.child.Open() }

// Next implements Operator.
func (p *ProjectOp) Next() (*col.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	vecs := make([]*col.Vector, len(p.progs))
	for i := range p.progs {
		if vecs[i], err = p.progs[i].eval(b); err != nil {
			return nil, err
		}
	}
	return col.NewBatch(vecs...), nil
}

// Close implements Operator.
func (p *ProjectOp) Close() error { return p.child.Close() }

// JoinBuild is the materialized build (right) side of a hash join: the
// concatenated batch plus the typed key index. It is immutable once
// prepared, so one build can be probed by any number of join operators
// concurrently (the parallel VM path prepares it once and shares it across
// all probe workers). A non-empty build holds its STRING columns
// dictionary-coded over their distinct values (codeByRow), so probe output
// gathers 4-byte codes that share the build's dictionary.
type JoinBuild struct {
	node  *plan.JoinNode
	batch *col.Batch
	table *joinTable // keyless (cross) joins chain every row in one slot
}

// PrepareJoinBuild drains the build-side operator (opening and closing it)
// and indexes it on the join node's right keys. above, when non-nil, is
// the prepared build of the join whose probe side node is: where
// ReduceCols allows it, the build keeps only the rows above's table can
// match.
func PrepareJoinBuild(node *plan.JoinNode, right Operator, above *JoinBuild) (*JoinBuild, error) {
	keys, err := compileValues(joinKeys(node, node.RightKeys))
	if err != nil {
		return nil, err
	}
	build, err := Collect(right)
	if err != nil {
		return nil, err
	}
	if above != nil {
		if cols, ok := ReduceCols(above.node, node); ok {
			build = semiJoin(build, cols, above.table)
		}
	}
	// Coding first lets a string key share the columns' dictionaries, and
	// keeps the compaction off any key vector the table holds.
	codeByRow(build)
	keyVecs := make([]*col.Vector, len(keys))
	for i := range keys {
		if keyVecs[i], err = keys[i].eval(build); err != nil {
			return nil, err
		}
	}
	return &JoinBuild{node: node, batch: build, table: newJoinTable(keyVecs, build.N)}, nil
}

// codeByRow turns every STRING column of a collected, so plain, non-empty
// batch into the dictionary form: the column's distinct values, in
// first-appearance order, become its dictionary, compacted into the front
// of its own Strs, and each row's code indexes its value there. A NULL row
// is coded by the zero value the collect left under it. The build's
// strings are hashed here once per query; downstream, probe output shares
// the dictionary, so a GROUP BY on such a column groups by code with no
// hash at all. An empty batch stays plain: a LEFT join's NULL row needs an
// in-range code.
func codeByRow(b *col.Batch) {
	if b.N == 0 {
		return
	}
	var slots []int32
	for c, v := range b.Vecs {
		if v.Type != col.STRING {
			continue
		}
		codes := make([]uint32, b.N)
		dict := distinctCodes(v.Strs[:b.N], codes, &slots)
		b.Vecs[c] = &col.Vector{Type: col.STRING, Dict: dict, Codes: codes, Valid: v.Valid, N: b.N}
	}
}

// distinctCodes codes strs over their distinct values in first-appearance
// order, writing one code per row into codes, and returns the dictionary:
// strs' own front, overwritten with the distinct values. Row r's value
// moves only to an index at most r, once every row before it was read.
// slots is an open-addressing table of dictionary indexes, reused across
// calls.
func distinctCodes(strs []string, codes []uint32, slots *[]int32) []string {
	table := resize(slots, tableSize(len(strs)))
	for i := range table {
		table[i] = -1
	}
	mask := uint64(len(table) - 1)
	n := 0
	for r, s := range strs {
		i := maphash.String(stringSeed, s) & hashMask & mask
		for table[i] >= 0 && strs[table[i]] != s {
			i = (i + 1) & mask
		}
		if table[i] < 0 {
			table[i] = int32(n)
			strs[n] = s
			n++
		}
		codes[r] = uint32(table[i])
	}
	return strs[:n:n]
}

// PrepareBuilds prepares the build of every join in n, walking the plan in
// pre-order: a join's build is prepared before the joins on its probe
// side, which receive it as above, so a chain's lower builds are reduced
// by the upper ones wherever ReduceCols allows. env serves the build
// sides' scans and spans. The binder puts a scan pipeline on the right of
// every join, so no build side holds a join of its own.
func PrepareBuilds(n plan.Node, env BuildEnv) (map[*plan.JoinNode]*JoinBuild, error) {
	builds := map[*plan.JoinNode]*JoinBuild{}
	var walk func(n plan.Node, above *JoinBuild) error
	walk = func(n plan.Node, above *JoinBuild) error {
		if j, ok := n.(*plan.JoinNode); ok {
			right, err := BuildWith(j.Right, env)
			if err != nil {
				return err
			}
			if above, err = PrepareJoinBuild(j, right, above); err != nil {
				return err
			}
			builds[j] = above
			return walk(j.Left, above)
		}
		for _, c := range n.Children() {
			if err := walk(c, above); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(n, nil); err != nil {
		return nil, err
	}
	return builds, nil
}

// ReduceCols reports whether child's build may keep only the rows whose
// key parent's build holds, and returns the child build columns that key
// reads, one per parent key. It may when both joins are inner, child is
// parent's probe (left) side, and every parent left key is a plain column
// of child's build side with the parent's right-key type, so the key needs
// no cast. A row it drops then cannot survive parent's join: its joined
// rows carry its key into parent's probe, where it finds no match. Row
// order and multiplicity of the chain's output do not change.
func ReduceCols(parent, child *plan.JoinNode) ([]int, bool) {
	if parent.Kind != plan.JoinInner || child.Kind != plan.JoinInner ||
		parent.Left != plan.Node(child) || len(parent.LeftKeys) == 0 {
		return nil, false
	}
	lw, rw := child.Left.Schema().Len(), child.Right.Schema().Len()
	cols := make([]int, len(parent.LeftKeys))
	for i, k := range parent.LeftKeys {
		c, ok := k.(*plan.BCol)
		if !ok || c.Ordinal < lw || c.Ordinal >= lw+rw || c.Ty != parent.RightKeys[i].Type() {
			return nil, false
		}
		cols[i] = c.Ordinal - lw
	}
	return cols, true
}

// semiJoin returns the rows of b whose columns cols, as a key, match a row
// of t, in b's order.
func semiJoin(b *col.Batch, cols []int, t *joinTable) *col.Batch {
	keys := make([]*col.Vector, len(cols))
	for i, c := range cols {
		keys[i] = b.Vecs[c]
	}
	sel := make([]int, 0, b.N)
	for r, m := range t.probe(keys, b.N, new(keyHasher), new([]int32)) {
		if m >= 0 {
			sel = append(sel, r)
		}
	}
	if len(sel) == b.N {
		return b
	}
	return b.Gather(sel)
}

// joinKeys returns one side's equi-keys as they are hashed and compared.
// The planner accepts INT64 = FLOAT64 as a join edge (the comparison
// semantics widen to float), so a mixed numeric pair casts its INT64 side
// to FLOAT64; any other mismatch is left alone — rowsEqual's type guard
// keeps such keys unmatched rather than risking a failing cast.
func joinKeys(node *plan.JoinNode, side []plan.BoundExpr) []plan.BoundExpr {
	out := make([]plan.BoundExpr, len(side))
	for i, k := range side {
		out[i] = k
		lt, rt := node.LeftKeys[i].Type(), node.RightKeys[i].Type()
		if lt != rt && lt.Numeric() && rt.Numeric() && k.Type() != col.FLOAT64 {
			out[i] = &plan.BCast{X: k, To: col.FLOAT64}
		}
	}
	return out
}

// HashJoinOp implements inner and left hash joins by probing a prepared
// build (PrepareBuilds) with its left child's rows. A join with no equi
// keys (a cross join, or a LEFT join with a residual-only ON) is a hash
// join on zero keys: every row hashes alike, so a probe walks the whole
// build in build order.
type HashJoinOp struct {
	node     *plan.JoinNode
	left     Operator
	build    *JoinBuild
	probe    []valueProg
	residual *vec.Program
	rs       vec.Scratch

	// Per-batch scratch, reused across Next calls. out is the batch Next
	// returns, valid until the next call.
	out      col.Batch
	keyVecs  []*col.Vector
	hasher   keyHasher
	first    []int32
	leftIdx  []int
	rightIdx []int
	outLeft  []int
	outRight []int
	pass     []bool
	matched  []bool
	emitted  []bool
}

// NewHashJoinOp builds a join operator that probes build with left's rows.
func NewHashJoinOp(node *plan.JoinNode, left Operator, build *JoinBuild) (*HashJoinOp, error) {
	j := &HashJoinOp{node: node, left: left, build: build}
	var err error
	if j.probe, err = compileValues(joinKeys(node, node.LeftKeys)); err != nil {
		return nil, err
	}
	if node.Residual != nil {
		if j.residual, err = vec.CompilePredicate(node.Residual); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// Schema implements Operator.
func (j *HashJoinOp) Schema() *col.Schema { return j.node.Schema() }

// Open implements Operator.
func (j *HashJoinOp) Open() error { return j.left.Open() }

// Next implements Operator.
func (j *HashJoinOp) Next() (*col.Batch, error) {
	for {
		lb, err := j.left.Next()
		if err != nil || lb == nil {
			return nil, err
		}
		out, err := j.joinBatch(lb)
		if err != nil {
			return nil, err
		}
		if out.N > 0 {
			return out, nil
		}
	}
}

func (j *HashJoinOp) joinBatch(lb *col.Batch) (*col.Batch, error) {
	// rightIdx -1 marks a NULL-extended row. Both index slices are scratch
	// reused across batches; materialize copies out of them.
	leftIdx, rightIdx := j.leftIdx[:0], j.rightIdx[:0]
	keyVecs := j.keyVecs[:0]
	for i := range j.probe {
		v, err := j.probe[i].eval(lb)
		if err != nil {
			return nil, err
		}
		keyVecs = append(keyVecs, v)
	}
	j.keyVecs = keyVecs
	table := j.build.table
	for i, m := range table.probe(keyVecs, lb.N, &j.hasher, &j.first) {
		if m < 0 {
			if j.node.Kind == plan.JoinLeft {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, -1)
			}
			continue
		}
		for ; m >= 0; m = table.next[m] {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, int(m))
		}
	}
	j.leftIdx, j.rightIdx = leftIdx, rightIdx

	joined := j.materialize(lb, leftIdx, rightIdx)
	if j.node.Residual == nil || joined.N == 0 {
		return joined, nil
	}
	sel, err := j.residual.Select(joined, &j.rs)
	if err != nil {
		return nil, err
	}
	if j.node.Kind != plan.JoinLeft {
		if len(sel) == joined.N {
			return joined, nil
		}
		return joined.Gather(sel), nil
	}
	// LEFT JOIN residual: rows failing the residual keep the left side
	// with a NULL right side, once per left row. The bookkeeping is three
	// reused boolean scratch slices — pass indexed by joined row, matched
	// and emitted by probe row.
	pass := resize(&j.pass, joined.N)
	clear(pass)
	for _, s := range sel {
		pass[s] = true
	}
	matched := resize(&j.matched, lb.N)
	clear(matched)
	for r := 0; r < joined.N; r++ {
		if pass[r] && rightIdx[r] >= 0 {
			matched[leftIdx[r]] = true
		}
	}
	emitted := resize(&j.emitted, lb.N)
	clear(emitted)
	outLeft, outRight := j.outLeft[:0], j.outRight[:0]
	for r := 0; r < joined.N; r++ {
		li := leftIdx[r]
		switch {
		case pass[r] && rightIdx[r] >= 0:
			outLeft = append(outLeft, li)
			outRight = append(outRight, rightIdx[r])
		case !matched[li] && !emitted[li]:
			outLeft = append(outLeft, li)
			outRight = append(outRight, -1)
			emitted[li] = true
		}
	}
	j.outLeft, j.outRight = outLeft, outRight
	return j.materialize(lb, outLeft, outRight), nil
}

// materialize assembles the joined batch from row-index pairs into the
// operator's output batch, overwriting the previous one; a right index of
// -1 gathers a NULL build row. It reads only lb and the build side, so a
// second call may overwrite a batch the first returned.
func (j *HashJoinOp) materialize(lb *col.Batch, leftIdx, rightIdx []int) *col.Batch {
	lw := len(lb.Vecs)
	out := &j.out
	if out.Vecs == nil {
		out.Vecs = make([]*col.Vector, lw+len(j.build.batch.Vecs))
		for c := range out.Vecs {
			out.Vecs[c] = &col.Vector{}
		}
	}
	for c, v := range out.Vecs {
		col.Poison(v)
		if c < lw {
			lb.Vecs[c].GatherInto(v, leftIdx)
		} else {
			j.build.batch.Vecs[c-lw].GatherInto(v, rightIdx)
		}
	}
	out.N = len(leftIdx)
	return out
}

// Close implements Operator.
func (j *HashJoinOp) Close() error { return j.left.Close() }

// LimitOp truncates the stream.
type LimitOp struct {
	node    *plan.LimitNode
	child   Operator
	skipped int64
	emitted int64
}

// NewLimitOp builds a limit operator.
func NewLimitOp(node *plan.LimitNode, child Operator) *LimitOp {
	return &LimitOp{node: node, child: child}
}

// Schema implements Operator.
func (l *LimitOp) Schema() *col.Schema { return l.node.Schema() }

// Open implements Operator.
func (l *LimitOp) Open() error {
	l.skipped, l.emitted = 0, 0
	return l.child.Open()
}

// Next implements Operator.
func (l *LimitOp) Next() (*col.Batch, error) {
	for {
		if l.node.Limit >= 0 && l.emitted >= l.node.Limit {
			return nil, nil
		}
		b, err := l.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		// Apply offset.
		if l.skipped < l.node.Offset {
			remain := l.node.Offset - l.skipped
			if int64(b.N) <= remain {
				l.skipped += int64(b.N)
				continue
			}
			b = b.Slice(int(remain), b.N)
			l.skipped = l.node.Offset
		}
		if l.node.Limit >= 0 {
			want := l.node.Limit - l.emitted
			if int64(b.N) > want {
				b = b.Slice(0, int(want))
			}
		}
		l.emitted += int64(b.N)
		if b.N > 0 {
			return b, nil
		}
	}
}

// Close implements Operator.
func (l *LimitOp) Close() error { return l.child.Close() }

// BuildEnv supplies the execution context for BuildWith: the per-scan
// iterator factory plus every join's prepared build (PrepareBuilds; the
// parallel VM path hands the same immutable builds to every probe worker).
type BuildEnv struct {
	ScanFactory func(*plan.ScanNode) (func() (BatchIterator, error), error)
	JoinBuilds  map[*plan.JoinNode]*JoinBuild
	// Span, when non-nil, wraps every built operator in a timing decorator
	// recording one child span per operator (opened at Open, closed at
	// Close, rows emitted as an attr), nested to mirror the operator tree.
	// Rows, stats and billed bytes are unaffected.
	Span *obs.Span

	// parentHolder threads the enclosing operator's span holder through
	// recursive traced builds so operator spans nest; nil at the root.
	parentHolder *opSpanHolder
}

// BuildWith constructs the operator tree for a plan; env.ScanFactory
// supplies the batch stream for each scan node. When env.Span is set every
// operator is wrapped in a span decorator; otherwise the tree is built bare
// with zero tracing overhead.
func BuildWith(n plan.Node, env BuildEnv) (Operator, error) {
	if env.Span == nil {
		return buildOp(n, env)
	}
	parent := env.parentHolder
	if parent == nil {
		parent = &opSpanHolder{s: env.Span}
	}
	self := &opSpanHolder{}
	childEnv := env
	childEnv.parentHolder = self
	inner, err := buildOp(n, childEnv)
	if err != nil {
		return nil, err
	}
	return &spanOp{inner: inner, name: opSpanName(n), parent: parent, self: self}, nil
}

// buildOp constructs one operator, recursing through BuildWith so traced
// builds wrap every level.
func buildOp(n plan.Node, env BuildEnv) (Operator, error) {
	switch x := n.(type) {
	case *plan.ScanNode:
		newIter, err := env.ScanFactory(x)
		if err != nil {
			return nil, err
		}
		return newScanOp(x, newIter), nil
	case *plan.FilterNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newFilterOp(x, child)
	case *plan.ProjectNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return newProjectOp(x, child)
	case *plan.JoinNode:
		build := env.JoinBuilds[x]
		if build == nil {
			return nil, fmt.Errorf("exec: join %s has no prepared build", x.Label())
		}
		left, err := BuildWith(x.Left, env)
		if err != nil {
			return nil, err
		}
		return NewHashJoinOp(x, left, build)
	case *plan.AggNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewHashAggOp(x, child)
	case *plan.SortNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewSortOp(x.Keys, -1, child), nil
	case *plan.TopNNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewSortOp(x.Keys, max(x.N, 0), child), nil
	case *plan.LimitNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewLimitOp(x, child), nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// Collect opens, drains and closes an operator, returning all rows.
func Collect(op Operator) (*col.Batch, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	out := col.EmptyBatch(op.Schema())
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out.Append(b)
	}
}
