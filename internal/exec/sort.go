package exec

import (
	"cmp"
	"math"
	"sort"
	"strings"

	"repro/internal/col"
	"repro/internal/plan"
)

// SortOp is the one ordering operator: it materializes its input and emits
// it in sort-key order, NULLs last ascending and first descending, a float
// NaN after every number, with key ties kept in arrival order. A bounded
// sort (ORDER BY … LIMIT, a plan TopNNode) emits only the first n rows of
// that order and holds at most 2·n rows while it reads: once it holds 2·n
// it cuts back to the best n, and from then on keeps only arrivals that
// sort strictly before the n-th of them. Its output is exactly the
// unbounded sort's first n rows.
type SortOp struct {
	keys  []plan.SortKey
	limit int // rows kept; -1 keeps every row
	child Operator
	held  *col.Batch   // rows kept so far, in arrival order after any sorted prefix
	cut   bool         // held's first limit rows are the best so far, sorted
	keep  []int        // a bounded sort's kept rows of the current batch
	cand  []int        // rows of the current batch the typed pass let through
	rows  []col.Vector // their gathered columns, reused
	out   *col.Batch
	done  bool
}

// NewSortOp builds a sort of child's rows under keys. n >= 0 bounds it to
// the first n rows of the order; n < 0 keeps them all.
func NewSortOp(keys []plan.SortKey, n int64, child Operator) *SortOp {
	limit := -1
	if n >= 0 {
		limit = int(min(n, int64(math.MaxInt)))
	}
	return &SortOp{keys: keys, limit: limit, child: child}
}

// Schema implements Operator.
func (s *SortOp) Schema() *col.Schema { return s.child.Schema() }

// Open implements Operator.
func (s *SortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	s.held, s.cut = col.EmptyBatch(s.child.Schema()), false
	for {
		b, err := s.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		s.add(b)
	}
	s.out, s.held, s.rows = s.sorted(s.held), nil, nil
	return nil
}

// add takes one input batch into held. Once cut, an arrival that does not
// sort strictly before the last kept row can never be kept, since on equal
// keys the earlier arrival wins, so it is dropped without a copy. The rows
// a bounded sort keeps are appended in bulk, up to each cut.
func (s *SortOp) add(b *col.Batch) {
	if s.limit < 0 {
		s.held.Append(b)
		return
	}
	s.keep = s.keep[:0]
	if cand, ok := s.candidates(b); ok {
		for _, r := range cand {
			s.offer(b, r)
		}
	} else {
		for r := range b.N {
			s.offer(b, r)
		}
	}
	s.keepRows(b, s.keep)
}

// offer keeps row r of b unless the sort has cut and r does not sort
// strictly before the last kept row. Reaching 2·limit rows cuts.
func (s *SortOp) offer(b *col.Batch, r int) {
	if s.limit == 0 || s.cut && compareStoredRows(b, r, s.held, s.limit-1, s.keys) >= 0 {
		return
	}
	s.keep = append(s.keep, r)
	if s.held.N+len(s.keep)-s.limit == s.limit {
		s.keepRows(b, s.keep)
		s.held, s.cut = s.sorted(s.held), true
		s.keep = s.keep[:0]
	}
}

// candidates runs the typed pass: once cut, with a numeric leading key, it
// returns b's rows but those whose leading key sorts strictly after the
// last kept row's, and ok. A later cut in the same batch only tightens the
// cutoff, so offer would drop each row the pass leaves out. The pass
// leaves to offer NULL rows, every row under a NULL cutoff, and a NaN on
// either side, which no native float comparison orders; -0 and +0 tie.
func (s *SortOp) candidates(b *col.Batch) (cand []int, ok bool) {
	if !s.cut || len(s.keys) == 0 {
		return nil, false
	}
	k, at := s.keys[0], s.limit-1
	v, last := b.Vecs[k.Ordinal], s.held.Vecs[k.Ordinal]
	if last.IsNull(at) {
		return nil, false
	}
	switch v.Type {
	case col.FLOAT64:
		s.cand = notAfter(s.cand[:0], v.Floats[:b.N], v.Valid, last.Floats[at], k.Desc)
	case col.INT64, col.DATE, col.TIMESTAMP:
		s.cand = notAfter(s.cand[:0], v.Ints[:b.N], v.Valid, last.Ints[at], k.Desc)
	default:
		return nil, false
	}
	return s.cand, true
}

// notAfter appends to dst each row of xs that is NULL under valid or does
// not sort strictly after cut.
func notAfter[T int64 | float64](dst []int, xs []T, valid []bool, cut T, desc bool) []int {
	if desc {
		for r, x := range xs {
			if !(x < cut) || valid != nil && !valid[r] {
				dst = append(dst, r)
			}
		}
		return dst
	}
	for r, x := range xs {
		if !(x > cut) || valid != nil && !valid[r] {
			dst = append(dst, r)
		}
	}
	return dst
}

// keepRows appends b's rows at idx to held, gathering them into targets
// reused from batch to batch.
func (s *SortOp) keepRows(b *col.Batch, idx []int) {
	if s.rows == nil {
		s.rows = make([]col.Vector, len(b.Vecs))
	}
	for c, v := range b.Vecs {
		s.held.Vecs[c].Append(v.GatherInto(&s.rows[c], idx))
	}
	s.held.N += len(idx)
}

// sorted returns b's rows in key order, cut to the bound. The sort is
// stable, and b holds rows in arrival order apart from an already sorted
// prefix of earlier arrivals, so key ties keep arrival order.
func (s *SortOp) sorted(b *col.Batch) *col.Batch {
	idx := make([]int, b.N)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool {
		return compareStoredRows(b, idx[x], b, idx[y], s.keys) < 0
	})
	if s.limit >= 0 && s.limit < len(idx) {
		idx = idx[:s.limit]
	}
	return b.Gather(idx)
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
	s.held, s.out = nil, nil
	return s.child.Close()
}

// compareStoredRows orders row i of batch a against row j of batch b under
// the sort keys: NULLS LAST ascending, NULLS FIRST descending.
func compareStoredRows(a *col.Batch, i int, b *col.Batch, j int, keys []plan.SortKey) int {
	for _, k := range keys {
		va, vb := a.Vecs[k.Ordinal], b.Vecs[k.Ordinal]
		an, bn := va.IsNull(i), vb.IsNull(j)
		if an || bn {
			if an == bn {
				continue
			}
			// The NULL row sorts after unless the key is descending.
			if an != k.Desc {
				return 1
			}
			return -1
		}
		cc := compareVecs(va, i, vb, j)
		if cc == 0 {
			continue
		}
		if k.Desc {
			return -cc
		}
		return cc
	}
	return 0
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
		default: // equal, or a NaN, which sorts after every number
			return cmp.Compare(y, x)
		}
	case col.STRING:
		return strings.Compare(va.Str(a), vb.Str(b))
	default:
		return 0
	}
}
