package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/objstore"
	"repro/internal/pixfile"
)

// buildCodeTables builds the fixtures of the coded-build test: a probe
// table sp in three files, and a build table sb of 300 rows, more than a
// probe row group, whose names repeat and are sometimes NULL.
func buildCodeTables() (sp []*col.Batch, sb *col.Batch) {
	r := rand.New(rand.NewSource(47))
	for f := 0; f < 3; f++ {
		const rows = 500
		key, fk, v := col.NewVector(col.INT64, rows), col.NewVector(col.INT64, rows), col.NewVector(col.INT64, rows)
		for i := 0; i < rows; i++ {
			key.Ints[i] = int64(f*rows + i)
			fk.Ints[i] = int64(r.Intn(240))
			v.Ints[i] = int64(r.Intn(100))
			if r.Intn(10) == 0 {
				fk.SetNull(i)
			}
		}
		sp = append(sp, col.NewBatch(key, fk, v))
	}
	const rows = 300
	key, name, seg := col.NewVector(col.INT64, rows), col.NewVector(col.STRING, rows), col.NewVector(col.STRING, rows)
	segs := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", ""}
	for i := 0; i < rows; i++ {
		key.Ints[i] = int64(r.Intn(200))
		name.Strs[i] = fmt.Sprintf("name-%d", r.Intn(150))
		seg.Strs[i] = segs[r.Intn(len(segs))]
		if i%11 == 0 {
			name.SetNull(i)
		}
		if i%13 == 0 {
			seg.SetNull(i)
		}
		if i%17 == 0 {
			key.SetNull(i)
		}
	}
	return sp, col.NewBatch(key, name, seg)
}

func newBuildCodeEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(catalog.New(), objstore.NewMemory())
	ctx := context.Background()
	for _, q := range []string{
		"CREATE DATABASE db",
		"CREATE TABLE sp (s_key BIGINT NOT NULL, s_b BIGINT, s_v BIGINT NOT NULL)",
		"CREATE TABLE sb (b_key BIGINT, b_name VARCHAR, b_seg VARCHAR)",
		"CREATE TABLE se (b_key BIGINT, b_name VARCHAR, b_seg VARCHAR)",
		// The oracle runs no joins: it reads these pre-joined tables.
		"CREATE TABLE spb (s_key BIGINT, s_b BIGINT, s_v BIGINT, b_key BIGINT, b_name VARCHAR, b_seg VARCHAR)",
		"CREATE TABLE spbl (s_key BIGINT, s_b BIGINT, s_v BIGINT, b_key BIGINT, b_name VARCHAR, b_seg VARCHAR)",
		"CREATE TABLE spel (s_key BIGINT, s_b BIGINT, s_v BIGINT, b_key BIGINT, b_name VARCHAR, b_seg VARCHAR)",
	} {
		if _, err := e.Execute(ctx, "db", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	sp, sb := buildCodeTables()
	for _, b := range sp {
		if err := e.LoadBatch("db", "sp", b, pixfile.WriterOptions{RowGroupSize: 128}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.LoadBatch("db", "sb", sb, pixfile.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// buildCodeQueries put the build's strings, coded through the join,
// under GROUP BY (top-customers' and segment-join's shapes), DISTINCT,
// COUNT(DISTINCT), MIN/MAX, a LIKE residual and ORDER BY, over inner and
// LEFT joins and an empty build. Each query comes with its oracle's
// rewrite onto the pre-joined tables.
var buildCodeQueries = [][2]string{
	{"SELECT b_name, COUNT(*), SUM(s_v) FROM sp JOIN sb ON s_b = b_key GROUP BY b_name",
		"SELECT b_name, COUNT(*), SUM(s_v) FROM spb GROUP BY b_name"},
	{"SELECT b_name, SUM(s_v) AS total FROM sp JOIN sb ON s_b = b_key GROUP BY b_name ORDER BY total DESC, b_name LIMIT 7",
		"SELECT b_name, SUM(s_v) AS total FROM spb GROUP BY b_name ORDER BY total DESC, b_name LIMIT 7"},
	{"SELECT b_seg, COUNT(*), SUM(s_v) FROM sp JOIN sb ON s_b = b_key WHERE s_v > 10 GROUP BY b_seg ORDER BY b_seg",
		"SELECT b_seg, COUNT(*), SUM(s_v) FROM spb WHERE s_v > 10 GROUP BY b_seg ORDER BY b_seg"},
	{"SELECT DISTINCT b_name FROM sp JOIN sb ON s_b = b_key ORDER BY b_name",
		"SELECT DISTINCT b_name FROM spb ORDER BY b_name"},
	{"SELECT b_seg, COUNT(DISTINCT b_name), MIN(b_name), MAX(b_name) FROM sp JOIN sb ON s_b = b_key GROUP BY b_seg ORDER BY b_seg",
		"SELECT b_seg, COUNT(DISTINCT b_name), MIN(b_name), MAX(b_name) FROM spb GROUP BY b_seg ORDER BY b_seg"},
	{"SELECT s_key, b_name FROM sp JOIN sb ON s_b = b_key AND (b_name LIKE 'name-1%' OR s_v < 5) ORDER BY s_key, b_name",
		"SELECT s_key, b_name FROM spb WHERE b_name LIKE 'name-1%' OR s_v < 5 ORDER BY s_key, b_name"},
	{"SELECT b_name, b_seg, COUNT(*) FROM sp LEFT JOIN sb ON s_b = b_key GROUP BY b_name, b_seg ORDER BY b_name, b_seg",
		"SELECT b_name, b_seg, COUNT(*) FROM spbl GROUP BY b_name, b_seg ORDER BY b_name, b_seg"},
	{"SELECT s_key, b_name FROM sp LEFT JOIN sb ON s_b = b_key WHERE s_key % 9 = 0 ORDER BY b_name DESC, s_key",
		"SELECT s_key, b_name FROM spbl WHERE s_key % 9 = 0 ORDER BY b_name DESC, s_key"},
	{"SELECT b_name, COUNT(*), SUM(s_v) FROM sp LEFT JOIN se ON s_b = b_key GROUP BY b_name",
		"SELECT b_name, COUNT(*), SUM(s_v) FROM spel GROUP BY b_name"},
	{"SELECT b_name, COUNT(*) FROM sp JOIN se ON s_b = b_key GROUP BY b_name",
		"SELECT b_name, COUNT(*) FROM spb WHERE s_key < 0 GROUP BY b_name"},
}

// TestJoinBuildStringsStayCoded: with the build's strings dictionary-coded
// through the join, every query returns the oracle's rows — serial, at
// widths 2 and 8, and split for CF at widths 2 and 8 — with identical
// billed bytes. At widths 2 and 8 the VM merge's final aggregate reads
// every worker's group keys as codes under the one build dictionary, which
// holds each of the build's names once.
func TestJoinBuildStringsStayCoded(t *testing.T) {
	e := newBuildCodeEngine(t)
	parts, sb := buildCodeTables()
	for _, width := range []int{2, 8} {
		mergeInputCoded(t, e, width, sb.Vecs[1])
	}
	sp := concatBatches(parts)
	se := &col.Batch{}
	for _, v := range sb.Vecs {
		se.Vecs = append(se.Vecs, col.NewVector(v.Type, 0))
	}
	tables := map[string]*col.Batch{"sp": sp, "sb": sb, "spb": joinRows(sp, sb, 1, 0, false),
		"spbl": joinRows(sp, sb, 1, 0, true), "spel": joinRows(sp, se, 1, 0, true)}
	for _, q := range buildCodeQueries {
		want, err := oracleOver(t, e, q[1], tables)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q[1], err)
		}
		results := runVecEquivQuery(t, e, q[0])
		for _, width := range []int{2, 8} {
			results = append(results, runDist(t, e, q[0], width, &LocalInvoker{Engine: e}))
		}
		for i, res := range results {
			if got := rowsAsStrings(res); !slices.Equal(got, want) {
				t.Fatalf("%s variant %d: rows %q, oracle %q", q[0], i, got, want)
			}
			if res.Stats.BytesScanned != results[0].Stats.BytesScanned {
				t.Fatalf("%s variant %d: billed bytes %d vs %d", q[0], i, res.Stats.BytesScanned, results[0].Stats.BytesScanned)
			}
		}
	}
}

// mergeInputCoded starts the VM workers of top-customers' shape, GROUP BY
// the build's b_name, at the given width, and fails unless every worker
// hands the merge its group keys coded under one dictionary: names, the
// build's column, in first-appearance order, each once.
func mergeInputCoded(t *testing.T, e *Engine, width int, names *col.Vector) {
	t.Helper()
	var want []string
	for r := 0; r < names.N; r++ {
		s := "" // a NULL row's value is the zero value the scan reads
		if !names.IsNull(r) {
			s = names.Strs[r]
		}
		if !slices.Contains(want, s) {
			want = append(want, s)
		}
	}
	if len(want) == names.N {
		t.Fatal("the build holds no duplicate name")
	}
	split, err := e.split(planNode(t, e, buildCodeQueries[0][0]), "local", width)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Tasks) < 2 {
		t.Fatalf("width %d: %d tasks", width, len(split.Tasks))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	builds, err := e.prepareBuilds(ctx, split.workerPlan, &Stats{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	streams, wait := e.startWorkers(ctx, cancel, split, builds)
	defer wait()
	var dict []string
	for i, next := range streams {
		b, err := next()
		if err != nil {
			t.Fatal(err)
		}
		k := b.Vecs[0]
		if k.Codes == nil {
			t.Fatalf("width %d: task %d hands the merge plain keys", width, i)
		}
		if i == 0 {
			dict = k.Dict
		} else if !col.SameDict(k.Dict, dict) {
			t.Fatalf("width %d: task %d's keys are coded under a dictionary of their own", width, i)
		}
	}
	if !slices.Equal(dict, want) {
		t.Fatalf("width %d: the keys' dictionary is %q, want the build's names once each %q", width, dict, want)
	}
}
