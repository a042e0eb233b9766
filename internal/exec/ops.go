// Package exec is the vectorized executor: it interprets plan trees with
// pull-based operators (scan, filter, project, hash join, hash aggregation,
// sort, limit), evaluating every bound expression through a program
// internal/vec compiled when the operator was built.
package exec

import (
	"fmt"
	"sort"
	"strings"

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
// all probe workers).
type JoinBuild struct {
	batch *col.Batch
	table *joinTable // nil for cross joins (no equi keys)
}

// PrepareJoinBuild drains the build-side operator (opening and closing it)
// and indexes it on the join node's right keys.
func PrepareJoinBuild(node *plan.JoinNode, right Operator) (*JoinBuild, error) {
	keys, err := compileValues(joinKeys(node, node.RightKeys))
	if err != nil {
		return nil, err
	}
	return prepareJoinBuild(right, keys)
}

// prepareJoinBuild is PrepareJoinBuild with the right keys compiled.
func prepareJoinBuild(right Operator, keys []valueProg) (*JoinBuild, error) {
	if err := right.Open(); err != nil {
		return nil, err
	}
	defer right.Close()
	build := col.EmptyBatch(right.Schema())
	for {
		b, err := right.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		appendBatch(build, b)
	}
	jb := &JoinBuild{batch: build}
	if len(keys) > 0 {
		keyVecs := make([]*col.Vector, len(keys))
		for i := range keys {
			var err error
			if keyVecs[i], err = keys[i].eval(build); err != nil {
				return nil, err
			}
		}
		jb.table = newJoinTable(keyVecs, build.N)
	}
	return jb, nil
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

// HashJoinOp implements inner/left hash joins and nested cross joins.
// The right child is the build side.
type HashJoinOp struct {
	node        *plan.JoinNode
	left, right Operator    // right is nil when the build side is shared
	buildKeys   []valueProg // nil when the build side is shared
	probe       []valueProg
	residual    *vec.Program
	rs          vec.Scratch

	shared *JoinBuild // pre-built by the caller; nil = build at Open
	build  *JoinBuild

	// Per-batch scratch, reused across Next calls.
	keyVecs  []*col.Vector
	leftIdx  []int
	rightIdx []int
	outLeft  []int
	outRight []int
	pass     []bool
	matched  []bool
	emitted  []bool
}

// NewHashJoinOp builds a join operator that materializes its own build side
// at Open.
func NewHashJoinOp(node *plan.JoinNode, left, right Operator) (*HashJoinOp, error) {
	return newHashJoinOp(node, left, right, nil)
}

// NewHashJoinOpShared builds a join operator probing a pre-built shared
// build side; only the probe (left) child is opened and drained.
func NewHashJoinOpShared(node *plan.JoinNode, left Operator, build *JoinBuild) (*HashJoinOp, error) {
	return newHashJoinOp(node, left, nil, build)
}

// newHashJoinOp compiles the join's keys and residual.
func newHashJoinOp(node *plan.JoinNode, left, right Operator, shared *JoinBuild) (*HashJoinOp, error) {
	j := &HashJoinOp{node: node, left: left, right: right, shared: shared}
	var err error
	if j.probe, err = compileValues(joinKeys(node, node.LeftKeys)); err != nil {
		return nil, err
	}
	if shared == nil {
		if j.buildKeys, err = compileValues(joinKeys(node, node.RightKeys)); err != nil {
			return nil, err
		}
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
func (j *HashJoinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if j.shared != nil {
		j.build = j.shared
		return nil
	}
	build, err := prepareJoinBuild(j.right, j.buildKeys)
	if err != nil {
		return err
	}
	j.build = build
	return nil
}

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
	switch {
	case len(j.node.LeftKeys) > 0:
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
		for i := 0; i < lb.N; i++ {
			m := table.lookup(keyVecs, i)
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
	default: // cross join, or keyless LEFT JOIN (residual-only ON)
		if j.build.batch.N == 0 && j.node.Kind == plan.JoinLeft {
			// No build rows to pair with: every probe row survives
			// NULL-extended.
			for i := 0; i < lb.N; i++ {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, -1)
			}
			break
		}
		for i := 0; i < lb.N; i++ {
			for m := 0; m < j.build.batch.N; m++ {
				leftIdx = append(leftIdx, i)
				rightIdx = append(rightIdx, m)
			}
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
	pass := resizeBools(&j.pass, joined.N)
	for _, s := range sel {
		pass[s] = true
	}
	matched := resizeBools(&j.matched, lb.N)
	for r := 0; r < joined.N; r++ {
		if pass[r] && rightIdx[r] >= 0 {
			matched[leftIdx[r]] = true
		}
	}
	emitted := resizeBools(&j.emitted, lb.N)
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

// resizeBools resizes *buf to n cleared entries, reusing its capacity.
func resizeBools(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*buf = b
	return b
}

// materialize assembles the joined batch from row-index pairs.
func (j *HashJoinOp) materialize(lb *col.Batch, leftIdx, rightIdx []int) *col.Batch {
	schema := j.Schema()
	n := len(leftIdx)
	vecs := make([]*col.Vector, schema.Len())
	lw := len(lb.Vecs)
	for c := 0; c < lw; c++ {
		vecs[c] = lb.Vecs[c].Gather(leftIdx)
	}
	for c := 0; c < len(j.build.batch.Vecs); c++ {
		src := j.build.batch.Vecs[c]
		out := col.NewVector(src.Type, n)
		for r, m := range rightIdx {
			if m < 0 {
				out.SetNull(r)
				continue
			}
			if src.IsNull(m) {
				out.SetNull(r)
				continue
			}
			out.Set(r, src.Value(m))
		}
		vecs[lw+c] = out
	}
	return &col.Batch{Vecs: vecs, N: n}
}

// Close implements Operator.
func (j *HashJoinOp) Close() error {
	err1 := j.left.Close()
	var err2 error
	if j.right != nil {
		err2 = j.right.Close()
	}
	j.build = nil
	if err1 != nil {
		return err1
	}
	return err2
}

func appendBatch(dst, src *col.Batch) {
	for c := range dst.Vecs {
		for r := 0; r < src.N; r++ {
			dst.Vecs[c].Append(src.Vecs[c], r)
		}
	}
	dst.N += src.N
}

// SortOp materializes and totally orders its input. NULLs sort last
// ascending, first descending.
type SortOp struct {
	node  *plan.SortNode
	child Operator
	out   *col.Batch
	done  bool
}

// NewSortOp builds a sort operator.
func NewSortOp(node *plan.SortNode, child Operator) *SortOp {
	return &SortOp{node: node, child: child}
}

// Schema implements Operator.
func (s *SortOp) Schema() *col.Schema { return s.node.Schema() }

// Open implements Operator.
func (s *SortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	all := col.EmptyBatch(s.child.Schema())
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		appendBatch(all, b)
	}
	idx := make([]int, all.N)
	for i := range idx {
		idx[i] = i
	}
	// compareStoredRows (shared with TopNOp) places NULLS LAST ascending,
	// NULLS FIRST descending; SliceStable keeps arrival order on full ties.
	sort.SliceStable(idx, func(a, b int) bool {
		return compareStoredRows(all, idx[a], all, idx[b], s.node.Keys) < 0
	})
	s.out = all.Gather(idx)
	return nil
}

// compareVecs compares row a of va against row b of vb (non-null, same
// type).
func compareVecs(va *col.Vector, a int, vb *col.Vector, b int) int {
	switch va.Type {
	case col.BOOL:
		x, y := va.Bools[a], vb.Bools[b]
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case col.INT64, col.DATE, col.TIMESTAMP:
		x, y := va.Ints[a], vb.Ints[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case col.FLOAT64:
		x, y := va.Floats[a], vb.Floats[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case col.STRING:
		return strings.Compare(va.Strs[a], vb.Strs[b])
	default:
		return 0
	}
}

// Next implements Operator.
func (s *SortOp) Next() (*col.Batch, error) {
	if s.done || s.out == nil {
		return nil, nil
	}
	s.done = true
	return s.out, nil
}

// Close implements Operator.
func (s *SortOp) Close() error {
	s.out = nil
	return s.child.Close()
}

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
// iterator factory plus optional pre-built join build sides (the parallel
// VM path prepares one build per shared join and hands the same immutable
// table to every probe worker).
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
		left, err := BuildWith(x.Left, env)
		if err != nil {
			return nil, err
		}
		if jb := env.JoinBuilds[x]; jb != nil {
			return NewHashJoinOpShared(x, left, jb)
		}
		right, err := BuildWith(x.Right, env)
		if err != nil {
			return nil, err
		}
		return NewHashJoinOp(x, left, right)
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
		return NewSortOp(x, child), nil
	case *plan.TopNNode:
		child, err := BuildWith(x.Child, env)
		if err != nil {
			return nil, err
		}
		return NewTopNOp(x, child), nil
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
		appendBatch(out, b)
	}
}
