// Package vec is the vectorized expression-kernel subsystem: typed columnar
// kernels over col.Vector data that evaluate predicates into selection
// vectors and scalar expressions into output vectors, without the per-row
// type dispatch and null boxing of the row-at-a-time exec.Evaluator.
//
// The entry points are Compile (a predicate into a Program whose Run
// returns the selected row indexes) and CompileValue (a scalar expression
// into a ValueProgram). Both compile a plan.BoundExpr tree into a small
// kernel program and report ok=false for any node they do not support —
// callers keep the interpreted path as the fallback, so the subsystem never
// has to be total. Supported kernels: comparisons (=, <>, <, <=, >, >=)
// over int64/float64/string/bool/date/timestamp columns, arithmetic
// (+ - * / %) with scalar specializations, three-valued AND/OR/NOT,
// IS [NOT] NULL, [NOT] IN over literal lists (hash-set membership with the
// interpreter's NULL-bearing-list semantics), every LIKE pattern (equality,
// prefix, suffix and contains patterns specialize via internal/like; the
// rest run the same anchored regexp the interpreter compiles), literals,
// CASE WHEN, and the scalar functions of the SQL layer (ABS, LOWER, UPPER,
// LENGTH, SUBSTR, CONCAT, COALESCE, YEAR, MONTH, DAY, ROUND, FLOOR, CEIL).
// Everything is null-mask aware and produces results bit-identical to the
// interpreter.
//
// Predicates evaluate under SQL three-valued logic by computing *two*
// selection sets per node — the rows where the node is TRUE and the rows
// where it is FALSE (NULL is the complement of both) — so NOT is a swap,
// AND(true) chains selections, and AND(false)/OR(true) are sorted unions.
// A Program is immutable and safe for concurrent use; all per-run state
// lives in a caller-owned Scratch, so one compiled filter can be shared by
// any number of goroutines.
//
// String predicates can additionally evaluate against a dictionary instead
// of materialized row values: when every use of a string column is a
// dictionary-capable leaf (compare-with-literal, LIKE, [NOT] IN,
// IS [NOT] NULL over the bare column — see Program.DictEligible), RunDict
// accepts a DictCol view (dictionary + per-row codes) for that column and
// each leaf decides the predicate once per distinct dictionary entry,
// O(|dict|) instead of O(rows), then translates row codes through the
// accept set. Decoders hand the codes straight from a DICT-encoded chunk,
// so non-surviving rows never materialize a string at all.
package vec

import (
	"repro/internal/col"
	"repro/internal/plan"
)

// Scratch holds the reusable per-run buffers of a Program or ValueProgram:
// one selection buffer per predicate node, one output vector and null mask
// per value node, and the identity selection. A Scratch may be reused
// across runs (that is the point) but never concurrently; selection vectors
// and interior value vectors returned by a run alias the scratch and are
// valid only until the next run with the same Scratch.
type Scratch struct {
	sels    [][]int
	vecs    []*col.Vector
	masks   [][]bool
	accepts [][]bool
	all     []int
}

func (s *Scratch) ensure(nSel, nVec, nAcc int) {
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

func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// evalCtx is the per-run evaluation context. dicts, set only by RunDict,
// maps batch ordinals to dictionary views; leaves compiled as
// dictionary-capable consult it before touching the batch vector (which may
// be nil for a dictionary-provided column).
type evalCtx struct {
	b     *col.Batch
	s     *Scratch
	dicts map[int]*DictCol
}

// dict returns the dictionary view for ord, or nil when the column is
// materialized in the batch.
func (ctx *evalCtx) dict(ord int) *DictCol {
	if ctx.dicts == nil {
		return nil
	}
	return ctx.dicts[ord]
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

// Program is a compiled predicate. It is immutable and safe for concurrent
// use with distinct Scratches.
type Program struct {
	root   pred
	refs   []colRefCheck
	nSel   int
	nVec   int
	nAcc   int
	dictOK map[int]bool
}

// Compile compiles a bound predicate into a kernel program. ok is false
// when the expression contains a node the kernel set does not cover; the
// caller should then evaluate with the interpreter.
func Compile(e plan.BoundExpr) (*Program, bool) {
	c := &compiler{}
	root, ok := c.compilePred(e)
	if !ok {
		return nil, false
	}
	return &Program{
		root: root, refs: c.refs,
		nSel: c.nSel, nVec: c.nVec, nAcc: c.nAcc,
		dictOK: c.dictEligible(),
	}, true
}

// DictEligible reports whether batch ordinal ord may be supplied to RunDict
// as a DictCol instead of a materialized string vector: the program
// references it, and every reference sits under a dictionary-capable leaf
// (compare-with-literal, LIKE, [NOT] IN, IS [NOT] NULL over the bare
// column).
func (p *Program) DictEligible(ord int) bool { return p.dictOK[ord] }

// validate checks the batch matches the compiled column references. A
// mismatch (short batch, missing or retyped vector) reports false and the
// caller falls back to the interpreter.
func validate(refs []colRefCheck, b *col.Batch) bool {
	for _, r := range refs {
		if r.ord < 0 || r.ord >= len(b.Vecs) {
			return false
		}
		v := b.Vecs[r.ord]
		if v == nil || v.Type != r.ty || v.N != b.N {
			return false
		}
	}
	return true
}

// Run evaluates the predicate over b and returns the selected row indexes
// (rows where it is TRUE — NULL and FALSE are dropped), exactly as
// exec.Evaluator.EvalBool would. The returned slice aliases the Scratch.
// ok is false when the batch does not match the compiled column layout; no
// partial evaluation happens in that case.
func (p *Program) Run(b *col.Batch, s *Scratch) ([]int, bool) {
	if !validate(p.refs, b) {
		return nil, false
	}
	s.ensure(p.nSel, p.nVec, p.nAcc)
	ctx := &evalCtx{b: b, s: s}
	return p.root.selTrue(ctx, s.identity(b.N)), true
}

// RunDict evaluates the predicate like Run, but columns present in dicts
// are read as dictionary views (the batch slot for such an ordinal may be
// nil): each dictionary-capable leaf decides the predicate once per
// distinct dictionary entry and translates row codes through the accept
// set, so the selection is computed without materializing a single string.
// Every ordinal in dicts must satisfy DictEligible and carry exactly b.N
// codes; ok is false (and nothing is evaluated) otherwise. The result is
// bit-identical to Run over the materialized equivalent.
func (p *Program) RunDict(b *col.Batch, dicts map[int]*DictCol, s *Scratch) ([]int, bool) {
	if len(dicts) == 0 {
		return p.Run(b, s)
	}
	for ord, dc := range dicts {
		if dc == nil || !p.DictEligible(ord) || dc.N != b.N || len(dc.Codes) != b.N {
			return nil, false
		}
	}
	for _, r := range p.refs {
		if dicts[r.ord] != nil {
			if r.ty != col.STRING {
				return nil, false
			}
			continue
		}
		if r.ord < 0 || r.ord >= len(b.Vecs) {
			return nil, false
		}
		v := b.Vecs[r.ord]
		if v == nil || v.Type != r.ty || v.N != b.N {
			return nil, false
		}
	}
	s.ensure(p.nSel, p.nVec, p.nAcc)
	ctx := &evalCtx{b: b, s: s, dicts: dicts}
	return p.root.selTrue(ctx, s.identity(b.N)), true
}

// ValueProgram is a compiled scalar expression. CASE WHEN conditions embed
// predicate trees, so a value program owns selection (and accept-set)
// slots too.
type ValueProgram struct {
	root valExpr
	refs []colRefCheck
	nSel int
	nVec int
	nAcc int
}

// CompileValue compiles a bound scalar expression into a value program
// whose Eval produces the same vector the interpreter would. ok is false
// for unsupported nodes.
func CompileValue(e plan.BoundExpr) (*ValueProgram, bool) {
	c := &compiler{}
	root, ok := c.compileVal(e)
	if !ok {
		return nil, false
	}
	// The root vector escapes to the caller: mark it fresh so it never
	// aliases the reusable scratch slots (interior nodes still do).
	markFresh(root)
	return &ValueProgram{root: root, refs: c.refs, nSel: c.nSel, nVec: c.nVec, nAcc: c.nAcc}, true
}

// Eval computes the expression over b. The result is freshly allocated
// (or, for a bare column reference, the batch's own vector — matching the
// interpreter). ok is false when the batch does not match the compiled
// column layout.
func (p *ValueProgram) Eval(b *col.Batch, s *Scratch) (*col.Vector, bool) {
	if !validate(p.refs, b) {
		return nil, false
	}
	s.ensure(p.nSel, p.nVec, p.nAcc)
	ctx := &evalCtx{b: b, s: s}
	return p.root.eval(ctx), true
}

// compiler assigns scratch slots and records column references while
// translating the bound tree. strUses counts compiled references to each
// string ordinal; dictUses counts the subset owned by dictionary-capable
// leaves — an ordinal is dictionary-eligible when the two agree.
type compiler struct {
	nSel     int
	nVec     int
	nAcc     int
	refs     []colRefCheck
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

func (c *compiler) ref(ord int, ty col.Type) {
	c.refs = append(c.refs, colRefCheck{ord: ord, ty: ty})
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
