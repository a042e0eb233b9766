package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/col"
	"repro/internal/pixfile"
)

// floatKeyValues are fl's x_val values: NaN, both infinities, both zeros
// and heavy repeats. A draw past the end is a NULL.
var floatKeyValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2.5, 2.5, 7.25, -3, 11, 11, 11}

// floatKeyBatches are fl's rows, one batch per file: a unique x_key, a
// FLOAT64 x_val with NaN and NULLs, and a DATE x_day with NULLs.
func floatKeyBatches(files, rows int) []*col.Batch {
	var out []*col.Batch
	seed := uint64(7)
	for f := range files {
		key, val, day := col.NewVector(col.INT64, rows), col.NewVector(col.FLOAT64, rows), col.NewVector(col.DATE, rows)
		for i := range rows {
			seed = seed*6364136223846793005 + 1442695040888963407
			key.Ints[i] = int64(f*rows + i)
			if x := int(seed>>33) % (len(floatKeyValues) + 2); x < len(floatKeyValues) {
				val.Floats[i] = floatKeyValues[x]
			} else {
				val.SetNull(i)
			}
			if day.Ints[i] = 19000 + int64(seed>>45)%40; (seed>>20)%9 == 0 {
				day.SetNull(i)
			}
		}
		out = append(out, col.NewBatch(key, val, day))
	}
	return out
}

// floatTopNQueries are float- and date-led top-Ns, with and without an
// OFFSET, whose cutoffs fall among ties, among NaNs and among NULLs. They
// project the float key beside x_key, which shows where each NaN and NULL
// row was placed.
var floatTopNQueries = []string{
	"SELECT x_key, x_val FROM fl ORDER BY x_val DESC, x_key LIMIT 11",
	"SELECT x_key, x_val FROM fl ORDER BY x_val LIMIT 11 OFFSET 4",
	"SELECT x_key, x_val FROM fl ORDER BY x_val DESC LIMIT 40",
	// 578 NULL and 295 NaN rows: these straddle NULL → NaN → +Inf
	// descending and +Inf → NaN → NULL ascending.
	"SELECT x_key, x_val FROM fl ORDER BY x_val DESC LIMIT 20 OFFSET 570",
	"SELECT x_key, x_val FROM fl ORDER BY x_val DESC, x_key LIMIT 20 OFFSET 865",
	"SELECT x_key, x_val FROM fl ORDER BY x_val LIMIT 10 OFFSET 3120",
	"SELECT x_key, x_val FROM fl ORDER BY x_val, x_key DESC LIMIT 30 OFFSET 3410",
	"SELECT x_key, x_val FROM fl WHERE x_key % 3 = 0 ORDER BY x_val DESC, x_day LIMIT 7 OFFSET 2",
	"SELECT x_key, x_val FROM fl ORDER BY x_day DESC, x_val, x_key LIMIT 13",
}

// TestFloatTopNAcrossTopologies runs float-led top-Ns over NaN, NULL, ±Inf
// and ±0 keys: serial ≡ widths 1, 2 and 8 ≡ SplitForCF over LocalInvoker
// and ProcessInvoker, rows and stats, and the serial rows are the
// oracle's sort followed by LIMIT.
func TestFloatTopNAcrossTopologies(t *testing.T) {
	const files, rows = 8, 500
	e, dir := newDiskEngine(t, 1, 16)
	if _, err := e.Execute(context.Background(), "db", "CREATE TABLE fl (x_key BIGINT NOT NULL, x_val DOUBLE, x_day DATE)"); err != nil {
		t.Fatal(err)
	}
	batches := floatKeyBatches(files, rows)
	for _, b := range batches {
		if err := e.LoadBatch("db", "fl", b, pixfile.WriterOptions{RowGroupSize: 128}); err != nil {
			t.Fatal(err)
		}
	}
	proc := newProcessInvoker(dir)
	defer proc.Close()
	table := map[string]*col.Batch{"fl": concatBatches(batches)}
	for _, q := range floatTopNQueries {
		serial := serialResult(t, e, q)
		want, err := oracleOver(t, e, q, table)
		if err != nil {
			t.Fatalf("%s: oracle: %v", q, err)
		}
		if got := rowsAsStrings(serial); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: serial %v, oracle %v", q, got, want)
		}
		for _, width := range []int{1, 2, 8} {
			_, par := runBoth(t, e, q, width)
			expectIdentical(t, fmt.Sprintf("%s @%d", q, width), serial, par)
			local := runDist(t, e, q, width, &LocalInvoker{Engine: e})
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d local", q, width), serial, local)
			dist := runDist(t, e, q, width, proc)
			expectDistMatchesSerial(t, fmt.Sprintf("%s @%d proc", q, width), serial, dist)
			if dist.Stats != local.Stats {
				t.Fatalf("%q @%d: process stats %+v vs local stats %+v", q, width, dist.Stats, local.Stats)
			}
		}
	}
}
