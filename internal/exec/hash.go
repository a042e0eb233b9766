package exec

import (
	"math"
	"strings"

	"repro/internal/col"
)

// Typed hash tables for the join and aggregation operators. Keys are hashed
// and compared directly from the column vectors — no per-row string
// encoding, no per-row allocation — which is where the serial hash paths
// used to spend most of their time (a strings.Builder key per probe row and
// per group update).
//
// Both tables are open-addressing with linear probing over power-of-two
// slot arrays. Float keys are compared by bit pattern after normalizing
// -0.0 to 0.0 and all NaNs to one canonical NaN, so grouping and joining
// are total even on values where `=` is not reflexive.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	// nullSalt is mixed in for NULL key components when NULLs group
	// together (GROUP BY); join keys containing NULL never hash at all.
	nullSalt = 0x9e3779b97f4a7c15

	canonicalNaN = 0x7ff8000000000001
)

// mix64 folds one 64-bit lane into the running hash using a splitmix64-style
// finalizer, so consecutive integers don't land in consecutive slots.
func mix64(h, x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return (h ^ x) * fnvPrime
}

// floatKeyBits canonicalizes a float for hashing/equality: -0.0 and 0.0 are
// the same key, and every NaN is the same key.
func floatKeyBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// hashRow hashes the key columns of row i. ok is false when a component is
// NULL and nullsEqual is false (SQL equi-join keys never match on NULL).
func hashRow(vecs []*col.Vector, i int, nullsEqual bool) (h uint64, ok bool) {
	h = fnvOffset
	for _, v := range vecs {
		if v.IsNull(i) {
			if !nullsEqual {
				return 0, false
			}
			h = mix64(h, nullSalt)
			continue
		}
		switch v.Type {
		case col.BOOL:
			if v.Bools[i] {
				h = mix64(h, 1)
			} else {
				h = mix64(h, 2)
			}
		case col.INT64, col.DATE, col.TIMESTAMP:
			h = mix64(h, uint64(v.Ints[i]))
		case col.FLOAT64:
			h = mix64(h, floatKeyBits(v.Floats[i]))
		case col.STRING:
			s := v.Str(i)
			sh := uint64(fnvOffset)
			for j := 0; j < len(s); j++ {
				sh = (sh ^ uint64(s[j])) * fnvPrime
			}
			h = mix64(h, sh^uint64(len(s)))
		}
	}
	return h, true
}

// rowsEqual compares the key columns of row i in a against row j in b.
// Differently-typed positions never match (the join operator coerces mixed
// numeric keys to one type before they reach the table, so a type mismatch
// here can only mean "not a key match").
func rowsEqual(a []*col.Vector, i int, b []*col.Vector, j int, nullsEqual bool) bool {
	for c := range a {
		av, bv := a[c], b[c]
		if av.Type != bv.Type {
			return false
		}
		an, bn := av.IsNull(i), bv.IsNull(j)
		if an || bn {
			if !nullsEqual || an != bn {
				return false
			}
			continue
		}
		switch av.Type {
		case col.BOOL:
			if av.Bools[i] != bv.Bools[j] {
				return false
			}
		case col.INT64, col.DATE, col.TIMESTAMP:
			if av.Ints[i] != bv.Ints[j] {
				return false
			}
		case col.FLOAT64:
			if floatKeyBits(av.Floats[i]) != floatKeyBits(bv.Floats[j]) {
				return false
			}
		case col.STRING:
			if av.Str(i) != bv.Str(j) {
				return false
			}
		}
	}
	return true
}

// tableSize returns the power-of-two slot count for n expected keys at
// ≤ 50% load.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// joinTable indexes the build side of a hash join: slot → first build row
// with that key, next[] chaining further rows with an identical key in
// build order. It is immutable after construction, so one table can be
// probed by many workers concurrently.
type joinTable struct {
	mask   uint64
	slots  []int32 // first build row of the key's chain, -1 = empty
	hashes []uint64
	next   []int32 // next[r] = following build row with the same key, -1 = end
	keys   []*col.Vector
}

// newJoinTable indexes n build rows keyed by the given vectors. Rows with a
// NULL key component are not inserted (they can never match).
func newJoinTable(keys []*col.Vector, n int) *joinTable {
	size := tableSize(n)
	t := &joinTable{
		mask:   uint64(size - 1),
		slots:  make([]int32, size),
		hashes: make([]uint64, size),
		next:   make([]int32, n),
		keys:   keys,
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	// tails[slot] tracks the last row of each chain during construction so
	// duplicate keys keep build order; probes then emit matches in the same
	// order the old map[string][]int append produced.
	tails := make([]int32, size)
	for r := 0; r < n; r++ {
		h, ok := hashRow(keys, r, false)
		if !ok {
			continue
		}
		t.next[r] = -1
		s := h & t.mask
		for {
			if t.slots[s] < 0 {
				t.slots[s] = int32(r)
				t.hashes[s] = h
				tails[s] = int32(r)
				break
			}
			if t.hashes[s] == h && rowsEqual(keys, int(t.slots[s]), keys, r, false) {
				t.next[tails[s]] = int32(r)
				tails[s] = int32(r)
				break
			}
			s = (s + 1) & t.mask
		}
	}
	return t
}

// lookup returns the first build row matching the key columns of probe row
// i, or -1. Further matches follow t.next.
func (t *joinTable) lookup(vecs []*col.Vector, i int) int32 {
	h, ok := hashRow(vecs, i, false)
	if !ok {
		return -1
	}
	s := h & t.mask
	for {
		r := t.slots[s]
		if r < 0 {
			return -1
		}
		if t.hashes[s] == h && rowsEqual(t.keys, int(r), vecs, i, false) {
			return r
		}
		s = (s + 1) & t.mask
	}
}

// dictTupleSlots bounds the code-tuple table of assignGroups: the product,
// over the key columns, of dictionary size plus one NULL slot.
const dictTupleSlots = 4096

// assignGroups appends the group ids of the first n rows of keys to ids.
// When every key column is dictionary-coded and the code tuples fit in
// dictTupleSlots, rows resolve through a table from code tuple to group id,
// so findOrAdd runs once per distinct tuple instead of once per row. The
// table starts empty on every call, because codes index the batch's own
// dictionaries; tuples is its reused backing. Any other batch goes through
// findOrAdd row by row.
func (t *groupTable) assignGroups(keys []*col.Vector, n int, ids []int64, tuples []int32) ([]int64, []int32) {
	size := 1
	for _, k := range keys {
		if k.Codes == nil || size*(len(k.Dict)+1) > dictTupleSlots {
			for r := 0; r < n; r++ {
				id, _ := t.findOrAdd(keys, r)
				ids = append(ids, int64(id))
			}
			return ids, tuples
		}
		size *= len(k.Dict) + 1
	}
	if cap(tuples) < size {
		tuples = make([]int32, size)
	}
	tuples = tuples[:size]
	for i := range tuples {
		tuples[i] = -1
	}
	for r := 0; r < n; r++ {
		slot, stride := 0, 1
		for _, k := range keys {
			c := len(k.Dict) // the NULL slot
			if !k.IsNull(r) {
				c = int(k.Codes[r])
			}
			slot += c * stride
			stride *= len(k.Dict) + 1
		}
		id := tuples[slot]
		if id < 0 {
			g, _ := t.findOrAdd(keys, r)
			id = int32(g)
			tuples[slot] = id
		}
		ids = append(ids, int64(id))
	}
	return ids, tuples
}

// groupTable assigns dense group ids to distinct key tuples, in first-
// appearance order. NULL components are regular key values (GROUP BY
// semantics). The accumulated key columns double as the output key vectors.
type groupTable struct {
	mask      uint64
	slots     []int32 // group id, -1 = empty
	hashes    []uint64
	groupHash []uint64      // per-group hash, for rehashing on growth
	keys      []*col.Vector // one appended row per group
	n         int
}

// newGroupTable builds an empty table whose key columns have the given
// types.
func newGroupTable(types []col.Type) *groupTable {
	size := 64
	t := &groupTable{
		mask:   uint64(size - 1),
		slots:  make([]int32, size),
		hashes: make([]uint64, size),
		keys:   make([]*col.Vector, len(types)),
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	for i, ty := range types {
		t.keys[i] = col.NewVector(ty, 0)
	}
	return t
}

// findOrAdd returns the group id for the key columns of row i, appending a
// new group when the key is unseen.
func (t *groupTable) findOrAdd(vecs []*col.Vector, i int) (id int, added bool) {
	h, _ := hashRow(vecs, i, true)
	s := h & t.mask
	for {
		g := t.slots[s]
		if g < 0 {
			break
		}
		if t.hashes[s] == h && rowsEqual(t.keys, int(g), vecs, i, true) {
			return int(g), false
		}
		s = (s + 1) & t.mask
	}
	id = t.n
	t.slots[s] = int32(id)
	t.hashes[s] = h
	t.groupHash = append(t.groupHash, h)
	for c, v := range t.keys {
		v.Append(vecs[c], i)
		// Stored group keys live for the whole aggregation; clone string
		// keys (once per group) so they don't pin their source chunk's
		// shared decode blob.
		if v.Type == col.STRING && !v.IsNull(v.N-1) {
			v.Strs[v.N-1] = strings.Clone(v.Strs[v.N-1])
		}
	}
	t.n++
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	return id, true
}

// grow doubles the slot array, reinserting group ids from their saved
// hashes.
func (t *groupTable) grow() {
	size := 2 * len(t.slots)
	t.mask = uint64(size - 1)
	t.slots = make([]int32, size)
	t.hashes = make([]uint64, size)
	for i := range t.slots {
		t.slots[i] = -1
	}
	for g := 0; g < t.n; g++ {
		h := t.groupHash[g]
		s := h & t.mask
		for t.slots[s] >= 0 {
			s = (s + 1) & t.mask
		}
		t.slots[s] = int32(g)
		t.hashes[s] = h
	}
}
