// Package vec is the expression evaluator: typed columnar kernels over
// col.Vector data that evaluate predicates into selection vectors and
// scalar expressions into output vectors. Every expression site of the
// executor — filters, projections, aggregate keys and arguments, join keys
// and residuals, and the scan's pushed-down filter — compiles its bound
// expression here once, when the operator is built, and runs the program
// per batch.
//
// The entry points are CompilePredicate (a predicate into a Program whose
// Select returns the selected row indexes) and CompileValue (a scalar expression
// into a ValueProgram). The package is total over the expressions the
// binder produces: comparisons (=, <>, <, <=, >, >=) over every column
// type, arithmetic (+ - * / %) with scalar specializations, three-valued
// AND/OR/NOT, IS [NOT] NULL, [NOT] IN over literal lists, LIKE with literal
// patterns (specialized via internal/like) and with computed ones (compiled
// once per distinct pattern per run), literals, CASE WHEN, every CAST the
// binder admits, the scalar functions of the SQL layer, and predicates in
// value position. A shape the binder cannot produce is a compile error,
// and a batch that does not match the compiled column layout is a run
// error; both mean a planner bug, and neither has a fallback. A CAST of a
// string that does not parse is a query error returned by Select or Eval.
// Everything is null-mask aware.
//
// Predicates evaluate under SQL three-valued logic by computing *two*
// selection sets per node — the rows where the node is TRUE and the rows
// where it is FALSE (NULL is the complement of both) — so NOT is a swap,
// AND(true) chains selections, and AND(false)/OR(true) are sorted unions.
// A Program is immutable and safe for concurrent use; all per-run state,
// the evaluation context included, lives in a caller-owned Scratch, so one
// compiled filter can be shared by any number of goroutines.
//
// A STRING column may arrive dictionary-coded (col.Vector's Dict and
// Codes), as every DICT-encoded chunk decodes. A dictionary-capable leaf —
// compare-with-literal, LIKE, [NOT] IN or IS [NOT] NULL over the bare
// column — then decides the predicate once per distinct dictionary entry,
// O(|dict|) instead of O(rows), and translates row codes through the
// accept set, so no row string is materialized. Any other reference to a
// dictionary-coded column reads one materialization per run, held in the
// Scratch.
package vec

import (
	"fmt"

	"repro/internal/col"
	"repro/internal/like"
	"repro/internal/plan"
)

// Scratch holds the reusable per-run state of a Program or ValueProgram:
// the evaluation context, one selection buffer per predicate node, one
// output vector and null mask per value node, the compiled patterns of
// each computed-pattern LIKE, the identity selection, and the run's
// materializations of dictionary-coded columns. A Scratch may be
// reused across runs (that is the point) but never concurrently; selection
// vectors and interior value vectors returned by a run alias the scratch
// and are valid only until the next run with the same Scratch.
type Scratch struct {
	ctx     evalCtx
	sels    [][]int
	vecs    []*col.Vector
	masks   [][]bool
	accepts [][]bool
	likes   []map[string]like.Matcher
	all     []int
	strs    []*col.Vector // per batch ordinal: materialized dictionary-coded column
	strsOf  []*col.Vector // per batch ordinal: the column strs[ord] holds this run, if any
}

func (s *Scratch) ensure(nSel, nVec, nAcc, nLike int) {
	if len(s.sels) < nSel {
		s.sels = append(s.sels, make([][]int, nSel-len(s.sels))...)
	}
	if len(s.vecs) < nVec {
		s.vecs = append(s.vecs, make([]*col.Vector, nVec-len(s.vecs))...)
		s.masks = append(s.masks, make([][]bool, nVec-len(s.masks))...)
	}
	if len(s.accepts) < nAcc {
		s.accepts = append(s.accepts, make([][]bool, nAcc-len(s.accepts))...)
	}
	if len(s.likes) < nLike {
		s.likes = append(s.likes, make([]map[string]like.Matcher, nLike-len(s.likes))...)
	}
}

// begin starts a run over b: it sizes the slots for the program and resets
// the evaluation context held in the Scratch, so a run allocates no
// context of its own.
func (s *Scratch) begin(sh *shape, b *col.Batch) *evalCtx {
	s.ensure(sh.nSel, sh.nVec, sh.nAcc, sh.nLike)
	for _, m := range s.likes[:sh.nLike] {
		clear(m)
	}
	clear(s.strsOf)
	s.ctx = evalCtx{b: b, s: s}
	return &s.ctx
}

// strings returns dictionary-coded column ord of the run's batch, v, with
// one string per row: materialized on the run's first request and reused
// by every later one. The strings alias v's dictionary; the vector is the
// Scratch's and never escapes a run.
func (s *Scratch) strings(ord int, v *col.Vector) *col.Vector {
	if ord >= len(s.strs) {
		s.strs = append(s.strs, make([]*col.Vector, ord+1-len(s.strs))...)
		s.strsOf = append(s.strsOf, make([]*col.Vector, ord+1-len(s.strsOf))...)
	}
	m := s.strs[ord]
	if m == nil {
		m = &col.Vector{Type: col.STRING}
		s.strs[ord] = m
	}
	if s.strsOf[ord] != v {
		m.Strs, m.Valid, m.N = v.Strings(m.Strs), v.Valid, v.N
		s.strsOf[ord] = v
	}
	return m
}

// acceptBuf returns slot's dictionary accept-set buffer resized to n
// (contents undefined).
func (s *Scratch) acceptBuf(slot, n int) []bool {
	m := resize(s.accepts[slot], n)
	s.accepts[slot] = m
	return m
}

// selBuf returns slot's selection buffer, emptied.
func (s *Scratch) selBuf(slot int) []int { return s.sels[slot][:0] }

// putSel stores a (possibly grown) selection buffer back into its slot.
func (s *Scratch) putSel(slot int, v []int) []int {
	s.sels[slot] = v
	return v
}

// identity returns the [0, n) selection.
func (s *Scratch) identity(n int) []int {
	if cap(s.all) < n {
		s.all = make([]int, n)
		for i := range s.all {
			s.all[i] = i
		}
	}
	if len(s.all) < n {
		for i := len(s.all); i < n; i++ {
			s.all = append(s.all, i)
		}
	}
	return s.all[:n]
}

// vecBuf returns slot's output vector resized for n rows of type t with a
// nil validity mask. When fresh is set the vector is newly allocated — the
// root of a ValueProgram escapes to the caller and must not alias scratch.
func (s *Scratch) vecBuf(slot int, t col.Type, n int, fresh bool) *col.Vector {
	if fresh {
		return col.NewVector(t, n)
	}
	v := s.vecs[slot]
	if v == nil || v.Type != t {
		v = col.NewVector(t, n)
		s.vecs[slot] = v
		return v
	}
	v.N = n
	v.Valid = nil
	switch t {
	case col.BOOL:
		v.Bools = resize(v.Bools, n)
	case col.INT64, col.DATE, col.TIMESTAMP:
		v.Ints = resize(v.Ints, n)
	case col.FLOAT64:
		v.Floats = resize(v.Floats, n)
	case col.STRING:
		v.Strs = resize(v.Strs, n)
	}
	return v
}

// maskBuf returns slot's null-mask buffer resized to n (contents undefined).
// fresh allocates, mirroring vecBuf.
func (s *Scratch) maskBuf(slot, n int, fresh bool) []bool {
	if fresh {
		return make([]bool, n)
	}
	m := resize(s.masks[slot], n)
	s.masks[slot] = m
	return m
}

// likeMatcher returns the compiled matcher for pat, compiling it on its
// first use in this run.
func (s *Scratch) likeMatcher(slot int, pat string) (like.Matcher, error) {
	if m, ok := s.likes[slot][pat]; ok {
		return m, nil
	}
	m, err := like.Compile(pat)
	if err != nil {
		return like.Matcher{}, fmt.Errorf("vec: bad LIKE pattern %q: %w", pat, err)
	}
	if s.likes[slot] == nil {
		s.likes[slot] = make(map[string]like.Matcher)
	}
	s.likes[slot][pat] = m
	return m, nil
}

func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// evalCtx is the per-run evaluation context. err holds the first error a
// node met (a string that does not parse as the CAST target); the run
// returns it once the tree has been evaluated.
type evalCtx struct {
	b   *col.Batch
	s   *Scratch
	err error
}

// dict returns batch column ord when it is dictionary-coded, or nil.
func (ctx *evalCtx) dict(ord int) *col.Vector {
	if v := ctx.b.Vecs[ord]; v.Codes != nil {
		return v
	}
	return nil
}

// fail records err unless an earlier error is already recorded.
func (ctx *evalCtx) fail(err error) {
	if ctx.err == nil {
		ctx.err = err
	}
}

// pred is a compiled predicate node. selTrue returns the subset of sel
// (ascending row indexes) where the predicate evaluates TRUE; selFalse the
// subset where it evaluates FALSE. NULL rows appear in neither, which is
// what makes three-valued NOT/AND/OR exact. Returned slices may alias the
// Scratch (or sel itself) and are valid until the next run.
type pred interface {
	selTrue(ctx *evalCtx, sel []int) []int
	selFalse(ctx *evalCtx, sel []int) []int
}

// valExpr is a compiled scalar expression producing a full-length vector
// over the batch. Interior results alias the Scratch.
type valExpr interface {
	typ() col.Type
	eval(ctx *evalCtx) *col.Vector
}

// colRefCheck records one column reference for run-time validation.
type colRefCheck struct {
	ord int
	ty  col.Type
}

// shape is what a run needs to know about a compiled program besides its
// root: the column references to validate and the scratch slot counts.
type shape struct {
	refs  []colRefCheck
	nSel  int
	nVec  int
	nAcc  int
	nLike int
}

// Program is a compiled predicate. It is immutable and safe for concurrent
// use with distinct Scratches.
type Program struct {
	shape
	root   pred
	dictOK map[int]bool
}

// CompilePredicate compiles a bound predicate into a kernel program. An
// error means the expression is not one the binder produces.
func CompilePredicate(e plan.BoundExpr) (*Program, error) {
	c := &compiler{}
	root, err := c.compilePred(e)
	if err != nil {
		return nil, err
	}
	return &Program{shape: c.shape, root: root, dictOK: c.dictEligible()}, nil
}

// Compile is CompilePredicate with success reported as a bool, the form
// the benchmark harness's probe (benchmark/probe.go) calls.
func Compile(e plan.BoundExpr) (*Program, bool) {
	p, err := CompilePredicate(e)
	return p, err == nil
}

// DictEligible reports whether every reference of the program to batch
// ordinal ord sits under a dictionary-capable leaf (compare-with-literal,
// LIKE, [NOT] IN, IS [NOT] NULL over the bare column), the ordinals
// SelectDict accepts. It remains for the benchmark harness's probe.
func (p *Program) DictEligible(ord int) bool { return p.dictOK[ord] }

// validate checks the batch matches the compiled column references. A
// mismatch (short batch, missing or retyped vector) is a planner bug.
func validate(refs []colRefCheck, b *col.Batch) error {
	for _, r := range refs {
		if err := r.check(b); err != nil {
			return err
		}
	}
	return nil
}

func (r colRefCheck) check(b *col.Batch) error {
	if r.ord < 0 || r.ord >= len(b.Vecs) {
		return fmt.Errorf("vec: column ordinal %d outside a %d-column batch", r.ord, len(b.Vecs))
	}
	if v := b.Vecs[r.ord]; v == nil || v.Type != r.ty || v.N != b.N {
		return fmt.Errorf("vec: batch column %d does not hold %d %s rows", r.ord, b.N, r.ty)
	}
	return nil
}

// Select evaluates the predicate over b and returns the selected row
// indexes (rows where it is TRUE — NULL and FALSE are dropped). The
// returned slice aliases the Scratch.
func (p *Program) Select(b *col.Batch, s *Scratch) ([]int, error) {
	if err := validate(p.refs, b); err != nil {
		return nil, err
	}
	ctx := s.begin(&p.shape, b)
	sel := p.root.selTrue(ctx, s.identity(b.N))
	if ctx.err != nil {
		return nil, ctx.err
	}
	return sel, nil
}

// Run is Select with success reported as a bool, the form the benchmark
// harness's probe calls.
func (p *Program) Run(b *col.Batch, s *Scratch) ([]int, bool) {
	sel, err := p.Select(b, s)
	return sel, err == nil
}

// RunDict is SelectDict with success reported as a bool, the form the
// benchmark harness's probe calls.
func (p *Program) RunDict(b *col.Batch, dicts map[int]*DictCol, s *Scratch) ([]int, bool) {
	sel, err := p.SelectDict(b, dicts, s)
	return sel, err == nil
}

// SelectDict is Select with the columns in dicts supplied as DictCol views
// (the batch slot for such an ordinal may be nil): each becomes a
// dictionary-coded vector of a copy of b. Every ordinal in dicts must
// satisfy DictEligible and carry exactly b.N codes. It remains for the
// benchmark harness's probe.
func (p *Program) SelectDict(b *col.Batch, dicts map[int]*DictCol, s *Scratch) ([]int, error) {
	vecs := append([]*col.Vector(nil), b.Vecs...)
	for ord, dc := range dicts {
		if dc == nil || !p.DictEligible(ord) || dc.N != b.N || len(dc.Codes) != b.N || ord >= len(vecs) {
			return nil, fmt.Errorf("vec: dictionary view for column %d does not fit the program or batch", ord)
		}
		vecs[ord] = &col.Vector{Type: col.STRING, Dict: dc.Dict, Codes: dc.Codes, Valid: dc.Valid, N: dc.N}
	}
	return p.Select(&col.Batch{Vecs: vecs, N: b.N}, s)
}

// ValueProgram is a compiled scalar expression. CASE WHEN conditions and
// predicates in value position embed predicate trees, so a value program
// owns selection (and accept-set) slots too. A bare column reference — most
// group keys, aggregate arguments and join keys — compiles to no tree at
// all (root is nil): Eval returns the batch's own vector for column.
type ValueProgram struct {
	shape
	root   valExpr
	column colRefCheck
}

// CompileValue compiles a bound scalar expression into a value program
// whose Eval produces a vector of the expression's type. An error means
// the expression is not one the binder produces.
func CompileValue(e plan.BoundExpr) (*ValueProgram, error) {
	if x, ok := e.(*plan.BCol); ok && columnType(x.Ty) {
		return &ValueProgram{column: colRefCheck{ord: x.Ordinal, ty: x.Ty}}, nil
	}
	c := &compiler{}
	root, err := c.compileVal(e)
	if err != nil {
		return nil, err
	}
	if root.typ() != e.Type() {
		return nil, fmt.Errorf("vec: %s compiles to %s, typed %s", e, root.typ(), e.Type())
	}
	// A root that compiled down to a bare column (a same-type CAST) hands
	// back the batch's own vector, not a run's dictionary materialization.
	if r, ok := root.(*colRef); ok {
		return &ValueProgram{column: colRefCheck{ord: r.ord, ty: r.ty}}, nil
	}
	// The root vector escapes to the caller: mark it fresh so it never
	// aliases the reusable scratch slots (interior nodes still do).
	markFresh(root)
	return &ValueProgram{shape: c.shape, root: root}, nil
}

// Eval computes the expression over b. The result is freshly allocated,
// or, for a bare column reference, the batch's own vector.
func (p *ValueProgram) Eval(b *col.Batch, s *Scratch) (*col.Vector, error) {
	if p.root == nil {
		if err := p.column.check(b); err != nil {
			return nil, err
		}
		return b.Vecs[p.column.ord], nil
	}
	if err := validate(p.refs, b); err != nil {
		return nil, err
	}
	ctx := s.begin(&p.shape, b)
	v := p.root.eval(ctx)
	if ctx.err != nil {
		return nil, ctx.err
	}
	return v, nil
}

// compiler assigns scratch slots and records column references while
// translating the bound tree. strUses counts compiled references to each
// string ordinal; dictUses counts the subset owned by dictionary-capable
// leaves — an ordinal is dictionary-eligible when the two agree.
type compiler struct {
	shape
	strUses  map[int]int
	dictUses map[int]int
}

func (c *compiler) selSlot() int {
	c.nSel++
	return c.nSel - 1
}

func (c *compiler) vecSlot() int {
	c.nVec++
	return c.nVec - 1
}

func (c *compiler) accSlot() int {
	c.nAcc++
	return c.nAcc - 1
}

func (c *compiler) likeSlot() int {
	c.nLike++
	return c.nLike - 1
}

func (c *compiler) ref(ord int, ty col.Type) {
	c.refs = append(c.refs, colRefCheck{ord: ord, ty: ty})
}

// columnType reports whether t is a type vectors hold.
func columnType(t col.Type) bool {
	switch t {
	case col.BOOL, col.INT64, col.FLOAT64, col.STRING, col.DATE, col.TIMESTAMP:
		return true
	}
	return false
}

// unsupported is the compile error for a node outside what the binder
// produces.
func unsupported(e plan.BoundExpr) error {
	return fmt.Errorf("vec: unsupported expression %s", e)
}

// strUse records a compiled reference to a string column.
func (c *compiler) strUse(ord int) {
	if c.strUses == nil {
		c.strUses = make(map[int]int)
	}
	c.strUses[ord]++
}

// dictOrdOf reports the batch ordinal when v is a bare string column
// reference — the shape dictionary-capable leaves can evaluate at the
// dictionary level — and records the dictionary-owned use. Any other shape
// returns -1.
func (c *compiler) dictOrdOf(v valExpr) int {
	cr, ok := v.(*colRef)
	if !ok || cr.ty != col.STRING {
		return -1
	}
	if c.dictUses == nil {
		c.dictUses = make(map[int]int)
	}
	c.dictUses[cr.ord]++
	return cr.ord
}

// dictEligible computes the per-ordinal eligibility map: every compiled use
// of the string column is owned by a dictionary-capable leaf.
func (c *compiler) dictEligible() map[int]bool {
	if len(c.strUses) == 0 {
		return nil
	}
	ok := make(map[int]bool, len(c.strUses))
	for ord, n := range c.strUses {
		if n > 0 && c.dictUses[ord] == n {
			ok[ord] = true
		}
	}
	return ok
}

// unionInto merges two ascending selections into buf (deduplicating), the
// kernel behind AND-false and OR-true.
func unionInto(buf, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			buf = append(buf, a[i])
			i++
		case a[i] > b[j]:
			buf = append(buf, b[j])
			j++
		default:
			buf = append(buf, a[i])
			i++
			j++
		}
	}
	buf = append(buf, a[i:]...)
	buf = append(buf, b[j:]...)
	return buf
}
