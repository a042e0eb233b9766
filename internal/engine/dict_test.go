package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/plan"
)

// mixedDictRowGroup is the row-group size of the dx fixture.
const mixedDictRowGroup = 256

// mixedDictTables builds the dx and dj fixtures. dx's d_s is DICT-encoded
// in even row groups (five repeating values) and PLAIN in odd ones (two
// thirds near-unique values, one third the same five), so every string key
// meets both forms; d_t and d_u always DICT-encode, like pricing-summary's
// two flags. Every string column is about a fifth NULL in every row group.
// dj's j_s joins to d_s in both forms.
func mixedDictTables() (dx []*col.Batch, dj *col.Batch) {
	words := []string{"AIR", "RAIL", "SHIP", "TRUCK", ""}
	r := rand.New(rand.NewSource(36))
	for f := 0; f < 3; f++ {
		const rows = 4 * mixedDictRowGroup
		key := col.NewVector(col.INT64, rows)
		s := col.NewVector(col.STRING, rows)
		tv := col.NewVector(col.STRING, rows)
		u := col.NewVector(col.STRING, rows)
		v := col.NewVector(col.INT64, rows)
		for i := 0; i < rows; i++ {
			id := f*rows + i
			key.Ints[i] = int64(id)
			v.Ints[i] = int64(r.Intn(100))
			s.Strs[i] = words[r.Intn(len(words))]
			if (id/mixedDictRowGroup)%2 == 1 && i%3 != 0 {
				s.Strs[i] = fmt.Sprintf("u-%d", id%400)
			}
			tv.Strs[i] = []string{"F", "O"}[r.Intn(2)]
			u.Strs[i] = []string{"A", "N", "R"}[r.Intn(3)]
			for _, x := range []*col.Vector{s, tv, u} {
				if r.Intn(5) == 0 {
					x.SetNull(i)
				}
			}
		}
		dx = append(dx, col.NewBatch(key, s, tv, u, v))
	}
	keys := append(slices.Clone(words), "AIR") // a duplicate build key
	for i := 0; i < 60; i += 3 {
		keys = append(keys, fmt.Sprintf("u-%d", i))
	}
	keys = append(keys, "") // NULL below
	js := col.NewVector(col.STRING, len(keys))
	jw := col.NewVector(col.INT64, len(keys))
	copy(js.Strs, keys)
	for i := range jw.Ints {
		jw.Ints[i] = int64(i)
	}
	js.SetNull(len(keys) - 1)
	return dx, col.NewBatch(js, jw)
}

// newMixedDictEngine loads the dx and dj fixtures, dx in row groups of
// mixedDictRowGroup rows.
func newMixedDictEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE dx (d_key BIGINT NOT NULL, d_s VARCHAR, d_t VARCHAR, d_u VARCHAR, d_v BIGINT)",
		"CREATE TABLE dj (j_s VARCHAR, j_w BIGINT)",
		// The oracle runs no joins: it answers a join query from its rows
		// pre-joined into these (empty in the store) tables.
		"CREATE TABLE dji (d_key BIGINT, d_s VARCHAR, d_t VARCHAR, d_u VARCHAR, d_v BIGINT, j_s VARCHAR, j_w BIGINT)",
		"CREATE TABLE djl (d_key BIGINT, d_s VARCHAR, d_t VARCHAR, d_u VARCHAR, d_v BIGINT, j_s VARCHAR, j_w BIGINT)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	dx, dj := mixedDictTables()
	for _, b := range dx {
		if err := e.LoadBatch("db", "dx", b, pixfile.WriterOptions{RowGroupSize: mixedDictRowGroup}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.LoadBatch("db", "dj", dj, pixfile.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// joinRows is dx ⋈ dj on d_s = j_s by nested loops, dx's columns then
// dj's; left keeps an unmatched dx row once, with NULL dj columns.
func joinRows(dx, dj *col.Batch, left bool) *col.Batch {
	out := &col.Batch{}
	for _, v := range append(slices.Clone(dx.Vecs), dj.Vecs...) {
		out.Vecs = append(out.Vecs, col.NewVector(v.Type, 0))
	}
	nulls := col.NewBatch(col.NewVector(col.STRING, 1), col.NewVector(col.INT64, 1))
	for _, v := range nulls.Vecs {
		v.SetNull(0)
	}
	emit := func(i int, b *col.Batch, j int) {
		for c, v := range dx.Vecs {
			out.Vecs[c].Append(v, i)
		}
		for c, v := range b.Vecs {
			out.Vecs[len(dx.Vecs)+c].Append(v, j)
		}
		out.N++
	}
	ds, js := dx.Vecs[1], dj.Vecs[0]
	for i := 0; i < dx.N; i++ {
		matched := false
		for j := 0; j < dj.N; j++ {
			if !ds.IsNull(i) && !js.IsNull(j) && ds.Str(i) == js.Str(j) {
				emit(i, dj, j)
				matched = true
			}
		}
		if left && !matched {
			emit(i, nulls, 0)
		}
	}
	return out
}

// mixedDictQueries put d_s, DICT in some row groups and PLAIN in others,
// under GROUP BY (alone, and beside the always-DICT keys), DISTINCT,
// MIN/MAX, ORDER BY and a join key, with and without pushed-down filters,
// and as a projected value (a same-type CAST) whose batches outlive the
// next one, under a sort and out of a parallel join probe.
// A join query's oracle reads the pre-joined dji (inner) or djl (left).
var mixedDictQueries = []string{
	"SELECT d_s, COUNT(*), SUM(d_v), MIN(d_key) FROM dx GROUP BY d_s",
	"SELECT d_t, d_u, COUNT(*), SUM(d_v), AVG(d_v) FROM dx GROUP BY d_t, d_u",
	"SELECT d_t, d_u, COUNT(*) FROM dx WHERE d_key % 5 <> 2 GROUP BY d_t, d_u ORDER BY d_t, d_u",
	"SELECT d_t, d_s, COUNT(*), MAX(d_v) FROM dx GROUP BY d_t, d_s ORDER BY d_s, d_t",
	"SELECT d_s, d_u, COUNT(*) FROM dx WHERE d_s LIKE 'u-1%' OR d_s IN ('AIR', '') GROUP BY d_s, d_u",
	"SELECT DISTINCT d_s FROM dx ORDER BY d_s",
	"SELECT DISTINCT d_t, d_u FROM dx WHERE d_v < 50",
	"SELECT d_t, COUNT(DISTINCT d_s), COUNT(d_s), COUNT(*) FROM dx GROUP BY d_t",
	"SELECT MIN(d_s), MAX(d_s), MIN(d_t), MAX(d_u) FROM dx",
	"SELECT d_u, MIN(d_s), MAX(d_s) FROM dx WHERE d_key % 3 = 0 GROUP BY d_u ORDER BY d_u",
	"SELECT d_key, d_s, d_t FROM dx WHERE d_key % 7 = 0 ORDER BY d_s DESC, d_t, d_key",
	"SELECT d_s, d_key FROM dx ORDER BY d_s, d_key LIMIT 25",
	"SELECT d_s, j_w, COUNT(*), SUM(d_v) FROM dx JOIN dj ON d_s = j_s GROUP BY d_s, j_w ORDER BY d_s, j_w",
	"SELECT d_key, d_s, j_w FROM dx JOIN dj ON d_s = j_s WHERE d_key % 11 = 0 ORDER BY d_key, j_w",
	"SELECT d_key, j_w FROM dx LEFT JOIN dj ON d_s = j_s WHERE d_s LIKE 'u-%' AND d_key % 4 = 1 ORDER BY d_key, j_w",
	"SELECT d_key, CAST(d_s AS VARCHAR), j_w FROM dx JOIN dj ON d_s = j_s ORDER BY d_key, j_w",
	"SELECT d_key, CAST(d_s AS VARCHAR), CAST(d_t AS VARCHAR) FROM dx WHERE d_key % 3 <> 0 ORDER BY d_key",
}

// oracleQuery rewrites a mixedDictQueries join onto its pre-joined table.
func oracleQuery(q string) string {
	q = strings.Replace(q, "FROM dx LEFT JOIN dj ON d_s = j_s", "FROM djl", 1)
	return strings.Replace(q, "FROM dx JOIN dj ON d_s = j_s", "FROM dji", 1)
}

// TestMixedDictFixtureEncodings guards the fixture: d_s must be DICT in
// some row groups and PLAIN in others, each with NULLs, and d_t and d_u
// DICT throughout.
func TestMixedDictFixtureEncodings(t *testing.T) {
	e := newMixedDictEngine(t)
	encs := map[pixfile.Encoding]int{}
	for _, fm := range mustTable(t, e, "dx").Files {
		data, err := e.Store().Get(fm.Key)
		if err != nil {
			t.Fatal(err)
		}
		f, err := pixfile.OpenBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < f.NumRowGroups(); g++ {
			ch := f.RowGroup(g).Chunks
			if ch[1].Stats.NullCount == 0 {
				t.Fatalf("%s rg %d: d_s has no NULLs", fm.Key, g)
			}
			encs[ch[1].Encoding]++
			if ch[2].Encoding != pixfile.EncDict || ch[3].Encoding != pixfile.EncDict {
				t.Fatalf("%s rg %d: d_t/d_u encoded %s/%s, want DICT", fm.Key, g, ch[2].Encoding, ch[3].Encoding)
			}
		}
	}
	if encs[pixfile.EncDict] == 0 || encs[pixfile.EncPlain] == 0 {
		t.Fatalf("d_s encodings %v, want both DICT and PLAIN", encs)
	}
}

// TestMixedDictEquivalence: over a string column that is dictionary-coded
// in some row groups and plain in others, every query returns the
// oracle's rows — serial (synchronous and pipelined), at widths 2 and 8,
// and through the CF wire at width 2 — with identical billed bytes.
func TestMixedDictEquivalence(t *testing.T) {
	e := newMixedDictEngine(t)
	parts, dj := mixedDictTables()
	dx := concatBatches(parts)
	tables := map[string]*col.Batch{"dx": dx, "dj": dj, "dji": joinRows(dx, dj, false), "djl": joinRows(dx, dj, true)}
	for _, q := range mixedDictQueries {
		want, err := oracleOver(t, e, oracleQuery(q), tables)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		results := runVecEquivQuery(t, e, q)
		results = append(results, runDist(t, e, q, 2, &LocalInvoker{Engine: e}))
		for i, res := range results {
			if got := rowsAsStrings(res); !slices.Equal(got, want) {
				t.Fatalf("%s variant %d: rows %q, oracle %q", q, i, got, want)
			}
			if res.Stats.BytesScanned != results[0].Stats.BytesScanned {
				t.Fatalf("%s variant %d: billed bytes %d vs %d", q, i, res.Stats.BytesScanned, results[0].Stats.BytesScanned)
			}
		}
	}
}

// TestScanBatchCodesSurviveNext: a batch a scan returned stays valid while
// the consumer pulls further batches. Every batch is held, and after each
// Next the codes and strings of every held dictionary-coded vector must be
// unchanged — in the sequential and the pipelined scan, for a scan with no
// filter, one every row passes, and one that keeps part of each row group.
func TestScanBatchCodesSurviveNext(t *testing.T) {
	e := newMixedDictEngine(t)
	type held struct {
		v     *col.Vector
		codes []uint32
		strs  []string
	}
	for _, q := range []string{
		"SELECT d_s, d_t, d_key FROM dx",
		"SELECT d_s, d_t, d_key FROM dx WHERE d_key >= 0",
		"SELECT d_s, d_t, d_key FROM dx WHERE d_key % 3 <> 0",
		"SELECT d_s, d_t, d_key FROM dx WHERE d_t = 'F' OR d_s = 'AIR'",
	} {
		node := planNode(t, e, q)
		scan := plan.Scans(node)[0]
		prog, err := compileFilter(scan)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			sc := e.newScanContext(ctx, scan, prog, scan.Table.Files, &Stats{}, false)
			next := sc.sequential()
			if depth > 0 {
				next = sc.pipelined(depth)
			}
			var all []held
			coded := 0
			for {
				b, err := next()
				if err != nil {
					t.Fatalf("%s depth %d: %v", q, depth, err)
				}
				for _, h := range all {
					if !slices.Equal(h.v.Codes, h.codes) || !slices.Equal(h.v.Strings(nil), h.strs) {
						t.Fatalf("%s depth %d: a held batch's codes changed under a later Next", q, depth)
					}
				}
				if b == nil {
					break
				}
				for _, v := range b.Vecs {
					if v.Codes != nil {
						coded++
						all = append(all, held{v: v, codes: slices.Clone(v.Codes), strs: v.Strings(nil)})
					}
				}
			}
			cancel()
			if coded == 0 {
				t.Fatalf("%s depth %d: no dictionary-coded vector reached the consumer", q, depth)
			}
		}
	}
}
