package exec

import (
	"hash/maphash"
	"math"
	"slices"
	"strings"

	"repro/internal/col"
)

// Typed hash tables for the join and aggregation operators. Keys are hashed
// a column at a time into an operator-owned slice (keyHasher) and compared
// directly from the column vectors — no per-row string encoding, no
// per-row allocation.
//
// The group table and the join table's hashed layout are open-addressing
// with linear probing over power-of-two slot arrays. Float keys are
// compared by bit pattern after normalizing -0.0 to 0.0 and all NaNs to one
// canonical NaN, so grouping and joining are total even on values where
// `=` is not reflexive.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211

	// nullSalt is the lane a NULL key component mixes in. Group tables
	// group NULLs together this way; a join never looks up or inserts a
	// row whose key has a NULL (keyNull), so its lane does not matter there.
	nullSalt = 0x9e3779b97f4a7c15

	canonicalNaN = 0x7ff8000000000001
)

// stringSeed seeds every string key hash. Key hashes never leave the
// process — they are not on the wire, in a pixfile or in a cache key — so
// one random seed per process is enough.
var stringSeed = maphash.MakeSeed()

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

func boolLane(b bool) uint64 {
	if b {
		return 1
	}
	return 2
}

// keyHasher hashes key columns a column at a time. It owns its slices, so
// an operator that keeps one hashes every batch without allocating once
// they have grown to the batch size.
type keyHasher struct {
	hs    []uint64     // one hash per row
	lanes []uint64     // the current column's lane per row
	dicts []hashedDict // per key column, its last dictionary's lanes
}

// hashedDict is the lane of every entry of one dictionary. It holds the
// dictionary itself, so no other dictionary can take its address while the
// lanes are kept.
type hashedDict struct {
	dict  []string
	lanes []uint64
}

// dictLanes returns the lanes of key column c's dictionary, hashing its
// entries only when the column's dictionary is not the one it had at the
// last call. A join build's dictionary may be as large as the build and
// every probe batch shares it, so it is hashed once, not once per batch.
func (k *keyHasher) dictLanes(c int, dict []string) []uint64 {
	if c >= len(k.dicts) {
		k.dicts = append(k.dicts, make([]hashedDict, c+1-len(k.dicts))...)
	}
	d := &k.dicts[c]
	if !col.SameDict(d.dict, dict) {
		lanes := resize(&d.lanes, len(dict))
		for i, s := range dict {
			lanes[i] = maphash.String(stringSeed, s)
		}
		d.dict = dict
	}
	return d.lanes
}

// hash returns the hashes of the first n rows of keys, valid until the next
// call. Row r's hash mixes, column by column, the lane of its value, or
// nullSalt where it is NULL, whatever the slot under the NULL holds. A
// dictionary-coded column hashes each entry of a dictionary once.
func (k *keyHasher) hash(keys []*col.Vector, n int) []uint64 {
	hs := resize(&k.hs, n)
	for r := range hs {
		hs[r] = fnvOffset
	}
	lanes := resize(&k.lanes, n)
	for i, v := range keys {
		var valid []bool
		if v.Valid != nil {
			valid = v.Valid[:n]
		}
		switch {
		case v.Codes != nil:
			dict := k.dictLanes(i, v.Dict)
			for r, c := range v.Codes[:n] {
				if valid == nil || valid[r] {
					lanes[r] = dict[c]
				}
			}
		case v.Type == col.BOOL:
			for r, b := range v.Bools[:n] {
				lanes[r] = boolLane(b)
			}
		case v.Type == col.FLOAT64:
			for r, f := range v.Floats[:n] {
				lanes[r] = floatKeyBits(f)
			}
		case v.Type == col.STRING:
			for r, s := range v.Strs[:n] {
				lanes[r] = maphash.String(stringSeed, s)
			}
		default:
			for r, x := range v.Ints[:n] {
				lanes[r] = uint64(x)
			}
		}
		for r, x := range lanes {
			if valid != nil && !valid[r] {
				x = nullSalt
			}
			hs[r] = mix64(hs[r], x)
		}
	}
	if hashMask != ^uint64(0) {
		for r := range hs {
			hs[r] &= hashMask
		}
	}
	return hs
}

// hashRow is hash for row i alone, equal to it bit for bit. A
// dictionary-coded column reads its entry's lane from the hashed
// dictionary that hash keeps.
func (k *keyHasher) hashRow(keys []*col.Vector, i int) uint64 {
	h := uint64(fnvOffset)
	for c, v := range keys {
		x := uint64(nullSalt)
		if !v.IsNull(i) {
			switch {
			case v.Codes != nil:
				x = k.dictLanes(c, v.Dict)[v.Codes[i]]
			case v.Type == col.BOOL:
				x = boolLane(v.Bools[i])
			case v.Type == col.FLOAT64:
				x = floatKeyBits(v.Floats[i])
			case v.Type == col.STRING:
				x = maphash.String(stringSeed, v.Strs[i])
			default:
				x = uint64(v.Ints[i])
			}
		}
		h = mix64(h, x)
	}
	return h & hashMask
}

// resize sets *buf to n elements, reusing its capacity, and returns it.
// The elements keep whatever they held.
func resize[T any](buf *[]T, n int) []T {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// nullable reports whether any key column has a validity mask, so that
// keyNull is worth asking.
func nullable(keys []*col.Vector) bool {
	for _, v := range keys {
		if v.Valid != nil {
			return true
		}
	}
	return false
}

// keyNull reports whether row i's key has a NULL component; such a row
// never matches in a join.
func keyNull(keys []*col.Vector, i int) bool {
	for _, v := range keys {
		if v.IsNull(i) {
			return true
		}
	}
	return false
}

// rowsEqual compares the key columns of row i in a against row j in b, a
// NULL component equal to a NULL one. Differently-typed positions never
// match (the join operator coerces mixed numeric keys to one type before
// they reach the table, so a type mismatch here can only mean "not a key
// match").
func rowsEqual(a []*col.Vector, i int, b []*col.Vector, j int) bool {
	for c := range a {
		av, bv := a[c], b[c]
		if av.Type != bv.Type {
			return false
		}
		an, bn := av.IsNull(i), bv.IsNull(j)
		if an || bn {
			if an != bn {
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

// joinTable indexes the build side of a hash join: next[] chains the rows
// of one key in build order from the first, which a probe finds in one of
// two layouts. A key of one integer column whose non-NULL values span at
// most directSpan slots per build row is direct: direct[x-lo] is the first
// row with key x. Any other key hashes into open-addressing slots. It is
// immutable after construction, so many workers may probe one table.
type joinTable struct {
	next []int32 // next[r] = following build row with the same key, -1 = end
	keys []*col.Vector

	direct []int32 // first rows by key - lo, -1 = none; nil when hashed
	lo     int64

	mask   uint64
	slots  []int32 // first build row of the key's chain, -1 = empty
	hashes []uint64
	ints   []int64 // the key's values when it is one integer column, else nil
}

// directSpan caps the direct array at 64 B per build row; the hashed layout
// costs 24–48 B per row plus its tails. Change it only with a measurement.
const directSpan = 16

// newJoinTable indexes the first n rows of the build keys but those with a
// NULL component, which never match. Only the hashed layout hashes keys.
func newJoinTable(keys []*col.Vector, n int) *joinTable {
	if directJoins && len(keys) == 1 && keys[0].Ints != nil {
		if t := newDirectTable(keys, n); t != nil {
			return t
		}
	}
	var h keyHasher
	return newHashedTable(keys, n, h.hash(keys, n))
}

// newDirectTable indexes the first n rows of one integer key by value, or
// returns nil if its non-NULL values span over directSpan per row, taken in
// uint64, where hi−lo cannot overflow. A reverse walk keeps build order.
func newDirectTable(keys []*col.Vector, n int) *joinTable {
	k := keys[0]
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for r, x := range k.Ints[:n] {
		if k.Valid == nil || k.Valid[r] {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	size := 0 // no non-NULL key: every probe misses
	if lo <= hi {
		if uint64(hi)-uint64(lo) >= directSpan*uint64(n) {
			return nil
		}
		size = int(uint64(hi)-uint64(lo)) + 1
	}
	t := &joinTable{next: make([]int32, n), keys: keys, direct: make([]int32, size), lo: lo}
	for i := range t.direct {
		t.direct[i] = -1
	}
	for r := n - 1; r >= 0; r-- {
		if !k.IsNull(r) {
			s := uint64(k.Ints[r]) - uint64(lo)
			t.next[r], t.direct[s] = t.direct[s], int32(r)
		}
	}
	return t
}

// newHashedTable indexes n build rows keyed by the given vectors, whose
// hashes are hs.
func newHashedTable(keys []*col.Vector, n int, hs []uint64) *joinTable {
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
	if len(keys) == 1 && keys[0].Ints != nil {
		t.ints = keys[0].Ints
	}
	// tails[slot] tracks the last row of each chain during construction so
	// duplicate keys keep build order, and probes emit matches in it.
	tails := make([]int32, size)
	nulls := nullable(keys)
	for r := 0; r < n; r++ {
		if nulls && keyNull(keys, r) {
			continue
		}
		h := hs[r]
		t.next[r] = -1
		s := h & t.mask
		for {
			if t.slots[s] < 0 {
				t.slots[s] = int32(r)
				t.hashes[s] = h
				tails[s] = int32(r)
				break
			}
			if t.hashes[s] == h && rowsEqual(keys, int(t.slots[s]), keys, r) {
				t.next[tails[s]] = int32(r)
				tails[s] = int32(r)
				break
			}
			s = (s + 1) & t.mask
		}
	}
	return t
}

// probe returns, for each of the first n rows of keys, the first build row
// whose key matches, or -1, in *buf; further matches follow t.next. A NULL
// key never matches, nor does one typed unlike the build's (as rowsEqual).
// h hashes the keys, which only the hashed layout needs.
func (t *joinTable) probe(keys []*col.Vector, n int, h *keyHasher, buf *[]int32) []int32 {
	first := resize(buf, n)
	for i := range first {
		first[i] = -1
	}
	if t.direct != nil {
		if k := keys[0]; k.Type == t.keys[0].Type {
			for i, x := range k.Ints[:n] {
				if s := uint64(x) - uint64(t.lo); s < uint64(len(t.direct)) && (k.Valid == nil || k.Valid[i]) {
					first[i] = t.direct[s]
				}
			}
		}
		return first
	}
	hs := h.hash(keys, n)
	nulls := nullable(keys)
	for i := range first {
		if !(nulls && keyNull(keys, i)) {
			first[i] = t.lookup(keys, i, hs[i])
		}
	}
	return first
}

// lookup returns the first build row matching the key columns of probe row
// i, whose hash is h and whose key has no NULL, or -1, in the hashed
// layout. A key of one integer column compares values directly, with no
// per-row switch on the key's type.
func (t *joinTable) lookup(vecs []*col.Vector, i int, h uint64) int32 {
	s := h & t.mask
	if t.ints != nil && vecs[0].Type == t.keys[0].Type {
		x := vecs[0].Ints[i]
		for {
			r := t.slots[s]
			if r < 0 || t.hashes[s] == h && t.ints[r] == x {
				return r
			}
			s = (s + 1) & t.mask
		}
	}
	for {
		r := t.slots[s]
		if r < 0 {
			return -1
		}
		if t.hashes[s] == h && rowsEqual(t.keys, int(r), vecs, i) {
			return r
		}
		s = (s + 1) & t.mask
	}
}

// dictTupleSlots bounds the code-tuple table of assignGroups: the product,
// over the key columns, of dictionary size plus one NULL slot. 1<<16 slots
// (256 KiB of group ids) take the dictionary of any build of up to 65,535
// distinct values, such as a dimension table's names, and any two DICT
// chunk columns of up to 255 distinct values each. A larger product hashes
// rows.
const dictTupleSlots = 1 << 16

// codeSlots returns the size of the code-tuple table for keys, 0 when a
// key column is not dictionary-coded or the product exceeds
// dictTupleSlots, and whether every column keeps the dictionary the table
// was last built for.
func (t *groupTable) codeSlots(keys []*col.Vector) (size int, same bool) {
	size, same = 1, len(t.tupleDicts) == len(keys)
	for i, k := range keys {
		if k.Codes == nil || size*(len(k.Dict)+1) > dictTupleSlots {
			return 0, false
		}
		size *= len(k.Dict) + 1
		same = same && col.SameDict(t.tupleDicts[i], k.Dict)
	}
	return size, same
}

// assignGroups appends the group ids of the first n rows of keys to ids.
//
// A table starts in code mode. While every key column is dictionary-coded
// under the dictionaries of the first batch with rows and the code tuples
// fit in dictTupleSlots, a table from code tuple to group id resolves every
// row: an unseen tuple is the next group, whose key is stored as its codes
// under those dictionaries. A Dict holds each value once, so distinct
// tuples are distinct keys, and no row is hashed or compared. The first
// other batch — another dictionary, a plain key, too many tuples — hashes
// the stored keys into a slot array once, and the table stays hashed.
//
// A hashed table keeps the code-tuple table while every key column keeps
// its dictionary, as a join's build columns do across probe batches, so
// findOrAdd runs once per distinct tuple instead of once per row; it
// starts empty when one changes, as a scan's does from row group to row
// group. Any other batch is hashed whole and goes through findOrAdd row by
// row. Either way the batch's new keys are stored at the end, and group
// ids follow first appearance in every mode.
func (t *groupTable) assignGroups(keys []*col.Vector, n int, ids []int64) []int64 {
	size, same := t.codeSlots(keys)
	if t.slots == nil && (size == 0 || !same && t.n > 0) {
		t.hashStoredKeys()
	}
	if size == 0 {
		hs := t.hasher.hash(keys, n)
		for r := 0; r < n; r++ {
			id, _ := t.findOrAdd(keys, r, hs[r])
			ids = append(ids, int64(id))
		}
		t.flush(keys)
		return ids
	}
	if !same {
		tuples := resize(&t.tuples, size)
		for i := range tuples {
			tuples[i] = -1
		}
		t.tupleDicts = t.tupleDicts[:0]
		for _, k := range keys {
			t.tupleDicts = append(t.tupleDicts, k.Dict)
		}
	}
	coded := t.slots == nil
	tuples := t.tuples
	for r, slot := range t.tupleSlots(keys, n) {
		id := tuples[slot]
		if id < 0 {
			if coded {
				id = int32(t.n)
				t.pending = append(t.pending, r)
				t.n++
			} else {
				g, _ := t.findOrAdd(keys, r, t.hasher.hashRow(keys, r))
				id = int32(g)
			}
			tuples[slot] = id
		}
		ids = append(ids, int64(id))
	}
	t.flush(keys)
	return ids
}

// tupleSlots returns, valid until the next call, the code-tuple slot of
// each of the first n rows of keys, column by column: the sum over the
// columns of the row's code, or the column's NULL slot len(Dict), times
// the product of the earlier columns' dictionary sizes plus one.
func (t *groupTable) tupleSlots(keys []*col.Vector, n int) []int32 {
	slots := resize(&t.rowSlots, n)
	stride := int32(1)
	for i, k := range keys {
		codes := k.Codes[:n]
		if i == 0 {
			for r, c := range codes {
				slots[r] = int32(c)
			}
		} else {
			for r, c := range codes {
				slots[r] += int32(c) * stride
			}
		}
		null := int32(len(k.Dict))
		if k.Valid != nil {
			for r, ok := range k.Valid[:n] {
				if !ok {
					slots[r] += (null - int32(codes[r])) * stride
				}
			}
		}
		stride *= null + 1
	}
	return slots
}

// hashStoredKeys leaves code mode: it hashes the stored keys into a new
// slot array and turns coded key columns into strings of their own, which
// flush can append to and which pin no dictionary.
func (t *groupTable) hashStoredKeys() {
	t.groupHash = append(t.groupHash[:0], t.hasher.hash(t.keys, t.n)...)
	t.rehash(max(64, tableSize(t.n)))
	for c, v := range t.keys {
		if v.Codes != nil {
			plain := col.NewVector(col.STRING, 0)
			plain.Append(v)
			cloneStrings(plain.Strs)
			t.keys[c] = plain
		}
	}
}

// groupTable assigns dense group ids to distinct key tuples, in first-
// appearance order. NULL components are regular key values (GROUP BY
// semantics). The stored key columns double as the output key vectors.
//
// A table in code mode (assignGroups) has no slot array: slots is nil, and
// its key columns are dictionary-coded under tupleDicts. Otherwise a
// batch's new groups are kept as their rows in the batch (pending) while
// the batch is added, and later rows of the batch compare against those
// rows; flush then copies the new keys into keys in one gather and one
// append per column.
type groupTable struct {
	mask      uint64
	slots     []int32 // group id, -1 = empty; nil in code mode
	hashes    []uint64
	groupHash []uint64      // per-group hash, for rehashing on growth
	keys      []*col.Vector // one row per flushed group
	n         int           // groups, pending ones included
	pending   []int         // batch rows of groups n-len(pending) .. n-1

	hasher     keyHasher
	tuples     []int32      // assignGroups' code-tuple table
	rowSlots   []int32      // a batch's rows' code-tuple slots
	tupleDicts [][]string   // the key columns' dictionaries tuples indexes
	gather     []col.Vector // flush's per-column gather
}

// newGroupTable builds an empty table, in code mode, whose key columns
// have the given types.
func newGroupTable(types []col.Type) *groupTable {
	t := &groupTable{
		keys:   make([]*col.Vector, len(types)),
		gather: make([]col.Vector, len(types)),
	}
	for i, ty := range types {
		t.keys[i] = col.NewVector(ty, 0)
	}
	return t
}

// findOrAdd returns the group id for the key columns of row i, whose hash
// is h, adding a pending group when the key is unseen. vecs must be the
// batch the pending groups came from, until flush.
func (t *groupTable) findOrAdd(vecs []*col.Vector, i int, h uint64) (id int, added bool) {
	s := h & t.mask
	for {
		g := t.slots[s]
		if g < 0 {
			break
		}
		if t.hashes[s] == h && t.equal(int(g), vecs, i) {
			return int(g), false
		}
		s = (s + 1) & t.mask
	}
	id = t.n
	t.slots[s] = int32(id)
	t.hashes[s] = h
	t.groupHash = append(t.groupHash, h)
	t.pending = append(t.pending, i)
	t.n++
	if 2*t.n >= len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	return id, true
}

// equal compares group g's key with row i of vecs.
func (t *groupTable) equal(g int, vecs []*col.Vector, i int) bool {
	if first := t.n - len(t.pending); g >= first {
		return rowsEqual(vecs, t.pending[g-first], vecs, i)
	}
	return rowsEqual(t.keys, g, vecs, i)
}

// flush stores the pending groups' keys from vecs, the batch they came
// from. In code mode it appends their codes, under the dictionaries the
// table keeps. Otherwise stored keys live for the whole aggregation, so a
// flush copies its strings into one fresh blob: they never pin their
// source chunk's decode buffer.
func (t *groupTable) flush(vecs []*col.Vector) {
	if len(t.pending) == 0 {
		return
	}
	for c, v := range t.keys {
		from := v.N
		if t.slots == nil && v.Codes == nil {
			*v = col.Vector{Type: col.STRING, Dict: vecs[c].Dict, Codes: []uint32{}}
		}
		v.Append(vecs[c].GatherInto(&t.gather[c], t.pending))
		if v.Codes == nil && v.Type == col.STRING {
			cloneStrings(v.Strs[from:])
		}
	}
	t.pending = t.pending[:0]
}

// cloneStrings points strs at one fresh copy of their bytes.
func cloneStrings(strs []string) {
	n := 0
	for _, s := range strs {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range strs {
		b.WriteString(s)
	}
	blob := b.String()
	for i, s := range strs {
		strs[i], blob = blob[:len(s)], blob[len(s):]
	}
}

// rehash makes a slot array of size slots, a power of two, and inserts
// every group id into it from its saved hash.
func (t *groupTable) rehash(size int) {
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
