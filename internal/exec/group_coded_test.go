package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/col"
	"repro/internal/plan"
)

// chooser draws the choices of a code-mode trial: a *rand.Rand in the
// random test, the fuzzer's bytes in the fuzz target.
type chooser interface{ Intn(n int) int }

// byteChooser reads one choice per byte, 0 once the bytes run out.
type byteChooser struct{ data []byte }

func (b *byteChooser) Intn(n int) int {
	if len(b.data) == 0 {
		return 0
	}
	x := int(b.data[0])
	b.data = b.data[1:]
	return x % n
}

// codedPool is the values a code-mode trial's dictionaries draw from.
var codedPool = []string{"", "a", "b", "ab", "ba", "c", "ca"}

// codedTrial is one code-mode trial: the same rows coded and plain, whose
// first nkeys columns are STRING group keys and whose last is a FLOAT64.
type codedTrial struct {
	nkeys         int
	coded, plain  []*col.Batch
	switched      bool // a coded batch changed dictionaries after coded rows
	plainMid      bool // a plain batch came after coded rows
	codedThrough  bool // every batch was coded under the first dictionaries
	tooManyTuples bool // some dictionaries' tuples exceed dictTupleSlots
}

// codedStream draws a trial from c. Each key column starts under a
// dictionary that holds a random subset of codedPool once each, in random
// order, sometimes padded with unused entries so that the tuples exceed
// dictTupleSlots. Each later batch keeps the dictionaries, switches all
// of them to fresh ones, or comes plain. NULL rows hold random in-range
// codes, and some columns have no validity mask.
func codedStream(c chooser) codedTrial {
	tr := codedTrial{nkeys: 1 + c.Intn(3), codedThrough: true}
	dicts := make([][]string, tr.nkeys)
	newDicts := func() {
		size := 1
		for k := range dicts {
			pool := slices.Clone(codedPool)
			for i := len(pool) - 1; i > 0; i-- {
				j := c.Intn(i + 1)
				pool[i], pool[j] = pool[j], pool[i]
			}
			pad := 0
			if c.Intn(8) == 0 {
				pad = 300
			}
			dicts[k] = slices.Concat(pool[:1+c.Intn(len(pool))], unusedEntries[:pad])
			size *= len(dicts[k]) + 1
		}
		tr.tooManyTuples = tr.tooManyTuples || size > dictTupleSlots
	}
	newDicts()
	rows := false // some coded row came before this batch
	for b, nb := 0, 2+c.Intn(6); b < nb; b++ {
		event := c.Intn(4) // 0, 1: keep the dictionaries; 2: switch; 3: plain
		if b > 0 && event == 2 {
			newDicts()
			tr.switched = tr.switched || rows
			tr.codedThrough = false
		}
		n := c.Intn(40)
		coded, plain := make([]*col.Vector, tr.nkeys+1), make([]*col.Vector, tr.nkeys+1)
		for k, dict := range dicts {
			cv := &col.Vector{Type: col.STRING, Dict: dict, Codes: make([]uint32, n), N: n}
			pv := col.NewVector(col.STRING, n)
			nulls := c.Intn(3) != 0
			for r := 0; r < n; r++ {
				cv.Codes[r] = uint32(c.Intn(len(dict)))
				if nulls && c.Intn(4) == 0 {
					cv.SetNull(r)
					pv.SetNull(r)
					continue
				}
				pv.Strs[r] = dict[cv.Codes[r]]
			}
			coded[k], plain[k] = cv, pv
		}
		fv := col.NewVector(col.FLOAT64, n)
		for r := 0; r < n; r++ {
			if fv.Floats[r] = aggPropFloats[c.Intn(len(aggPropFloats))]; c.Intn(5) == 0 {
				fv.SetNull(r)
			}
		}
		coded[tr.nkeys], plain[tr.nkeys] = fv, fv
		pb := col.NewBatch(plain...)
		tr.plain = append(tr.plain, pb)
		if event == 3 {
			tr.coded = append(tr.coded, pb)
			tr.plainMid = tr.plainMid || rows
			tr.codedThrough = false
		} else {
			tr.coded = append(tr.coded, col.NewBatch(coded...))
		}
		rows = rows || n > 0
	}
	return tr
}

// checkCodedMatchesHashed feeds a trial's coded batches to one group table
// and its plain batches, which are hashed from the first, to another: both
// hand out the same ids batch by batch and store the same keys in the same
// order, and a HashAggOp over either gives the same rows, float sums bit
// for bit. A table fed only its first dictionaries stays in code mode.
func checkCodedMatchesHashed(t *testing.T, label string, tr codedTrial) {
	t.Helper()
	types := make([]col.Type, tr.nkeys)
	for k := range types {
		types[k] = col.STRING
	}
	ct, ht := newGroupTable(types), newGroupTable(types)
	for i := range tr.coded {
		cb, pb := tr.coded[i], tr.plain[i]
		got := ct.assignGroups(cb.Vecs[:tr.nkeys], cb.N, nil)
		want := ht.assignGroups(pb.Vecs[:tr.nkeys], pb.N, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: batch %d of %d keys: coded ids %v, hashed %v", label, i, tr.nkeys, got, want)
		}
	}
	if ct.n != ht.n {
		t.Fatalf("%s: %d groups coded, %d hashed", label, ct.n, ht.n)
	}
	for k := range types {
		if ct.keys[k].N != ct.n {
			t.Fatalf("%s: key column %d stores %d rows for %d groups", label, k, ct.keys[k].N, ct.n)
		}
		for g := 0; g < ct.n; g++ {
			if c, h := ct.keys[k].Value(g), ht.keys[k].Value(g); !c.Equal(h) {
				t.Fatalf("%s: group %d key column %d: coded %v, hashed %v", label, g, k, c, h)
			}
		}
	}
	if tr.codedThrough && !tr.tooManyTuples && ct.slots != nil {
		t.Fatalf("%s: a table fed one set of dictionaries built a slot array", label)
	}

	fields := make([]col.Field, tr.nkeys+1)
	node := &plan.AggNode{}
	for k := range tr.nkeys {
		fields[k] = col.Field{Name: fmt.Sprintf("k%d", k), Type: col.STRING, Nullable: true}
		node.GroupBy = append(node.GroupBy, colRef(k, col.STRING))
		node.GroupNames = append(node.GroupNames, fields[k].Name)
	}
	fields[tr.nkeys] = col.Field{Name: "f", Type: col.FLOAT64, Nullable: true}
	schema := col.NewSchema(fields...)
	node.Child = fakeNode(schema)
	f := colRef(tr.nkeys, col.FLOAT64)
	node.Aggs = []plan.AggSpec{{Func: plan.AggSum, Arg: f, Ty: col.FLOAT64, Name: "s"}, {Func: plan.AggCountStar, Ty: col.INT64, Name: "n"},
		{Func: plan.AggMax, Arg: colRef(0, col.STRING), Ty: col.STRING, Name: "m"}}
	got, err := Collect(must(NewHashAggOp(node, sliceSource(schema, tr.coded...))))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := Collect(must(NewHashAggOp(node, sliceSource(schema, tr.plain...))))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if g, w := batchRows(got), batchRows(want); !slices.Equal(g, w) {
		t.Fatalf("%s: aggregate over coded batches:\n got  %q\n want %q", label, g, w)
	}
}

// TestGroupTableCodedMatchesHashed: over random streams of 1–3 coded key
// columns with NULLs, which keep their dictionaries for a few batches,
// switch them, and carry a plain batch mid-stream, a table that starts in
// code mode matches one hashed from the start in ids, group order, keys
// and float-sum bits. Every kind of stream is drawn.
func TestGroupTableCodedMatchesHashed(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	var switched, plainMid, codedThrough, tooMany int
	for trial := 0; trial < 2000; trial++ {
		tr := codedStream(r)
		checkCodedMatchesHashed(t, fmt.Sprintf("trial %d", trial), tr)
		switched += b2i(tr.switched)
		plainMid += b2i(tr.plainMid)
		codedThrough += b2i(tr.codedThrough && !tr.tooManyTuples)
		tooMany += b2i(tr.tooManyTuples)
	}
	if switched == 0 || plainMid == 0 || codedThrough == 0 || tooMany == 0 {
		t.Fatalf("streams drawn: %d switch dictionaries, %d carry a plain batch, %d stay coded, %d exceed the tuple table",
			switched, plainMid, codedThrough, tooMany)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzGroupTableCodedMatchesHashed is TestGroupTableCodedMatchesHashed over
// streams the fuzzer's bytes choose.
func FuzzGroupTableCodedMatchesHashed(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{2, 5, 3, 1, 0, 6, 2, 9, 0, 1, 30, 4, 4, 2, 7, 3, 3, 20, 1, 1, 0, 5, 2, 2, 11, 3, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 12, 0, 1, 2, 3, 2, 1, 0, 3, 40, 8, 8, 8, 8, 2, 15, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCodedMatchesHashed(t, "fuzz", codedStream(&byteChooser{data}))
	})
}

// TestGroupTableOneDictBuildsNoSlots: a table fed batch after batch under
// one dictionary per key column, NULLs included, never builds a slot
// array, a hash per group or a string key: its keys stay codes under those
// dictionaries. A batch under another dictionary then hashes the table,
// and every stored group keeps its id.
func TestGroupTableOneDictBuildsNoSlots(t *testing.T) {
	dicts := [][]string{{"x", "", "yy", "z"}, {"p", "q"}}
	r := rand.New(rand.NewSource(3))
	batch := func(dicts [][]string, n int) []*col.Vector {
		var keys []*col.Vector
		for _, dict := range dicts {
			v := &col.Vector{Type: col.STRING, Dict: dict, Codes: make([]uint32, n), N: n}
			for i := range v.Codes {
				if v.Codes[i] = uint32(r.Intn(len(dict))); r.Intn(5) == 0 {
					v.SetNull(i)
				}
			}
			keys = append(keys, v)
		}
		return keys
	}
	tab := newGroupTable([]col.Type{col.STRING, col.STRING})
	var firstKeys [][]col.Value
	for range 6 {
		keys := batch(dicts, 50)
		for r, id := range tab.assignGroups(keys, 50, nil) {
			if int(id) == len(firstKeys) {
				firstKeys = append(firstKeys, []col.Value{keys[0].Value(r), keys[1].Value(r)})
			}
		}
	}
	if tab.slots != nil || tab.hashes != nil || tab.groupHash != nil {
		t.Fatalf("a table under one dictionary built %d slots and %d group hashes", len(tab.slots), len(tab.groupHash))
	}
	for c, dict := range dicts {
		if k := tab.keys[c]; k.Codes == nil || !col.SameDict(k.Dict, dict) || k.Strs != nil {
			t.Fatalf("key column %d is not stored as codes under its dictionary: %+v", c, k)
		}
	}
	if tab.n != len(firstKeys) || tab.n < 10 {
		t.Fatalf("%d groups, %d first appearances", tab.n, len(firstKeys))
	}

	other := [][]string{slices.Clone(dicts[0]), slices.Clone(dicts[1])}
	keys := batch(other, 200)
	ids := tab.assignGroups(keys, 200, nil)
	if tab.slots == nil {
		t.Fatal("a batch under another dictionary left the table in code mode")
	}
	for r, id := range ids {
		if int(id) < len(firstKeys) {
			want := firstKeys[id]
			if got := []col.Value{keys[0].Value(r), keys[1].Value(r)}; !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
				t.Fatalf("row %d: group %d is %v, its first row was %v", r, id, got, want)
			}
		}
	}
	if tab.n != len(firstKeys) {
		t.Fatalf("rows over the same values made %d new groups", tab.n-len(firstKeys))
	}
	for c := range dicts {
		if k := tab.keys[c]; k.Codes != nil || k.N != tab.n {
			t.Fatalf("key column %d after the switch: %+v", c, k)
		}
	}
}
