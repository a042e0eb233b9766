package pixelsdb

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateScanIO = flag.Bool("update", false, "rewrite testdata/scan_io.golden from this run")

// scanShapes are the four statement shapes of the benchmark's adhoc_scan
// workload, with fixed literals.
var scanShapes = []struct{ name, sql string }{
	{"forecast-revenue", `SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
	AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`},
	{"pricing-summary", `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
	SUM(l_extendedprice) AS sum_base_price, SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
	AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`},
	{"shipmode-scan", `SELECT l_orderkey, l_shipmode, l_returnflag, l_linestatus, l_quantity, l_extendedprice
FROM lineitem WHERE l_shipmode = 'AIR' AND l_quantity < 3`},
	{"count-star", `SELECT COUNT(*) FROM lineitem`},
}

// TestScanIOCounts pins the storage work of the adhoc_scan shapes on a disk
// DataDir — counts that are exact on any host: billed bytes, store GETs and
// bytes the store returned, against testdata/scan_io.golden. It runs the
// shapes once at SF 0.01 with no read cache, and twice at SF 0.05 (one
// lineitem file of five cache blocks) with a 64 MiB one: the first cached
// pass is pinned too, and the second must not reach the store. On
// Linux it also bounds what the kernel read for them, so reading more of a
// file than a range asks for fails here.
func TestScanIOCounts(t *testing.T) {
	var got strings.Builder
	got.WriteString("# statement billed_bytes gets bytes_read\n")
	scanIO(t, 0.01, 0, &got)
	got.WriteString("# SF 0.05, 64 MiB read cache, cold\n")
	db, cold := scanIO(t, 0.05, 64<<20, &got)
	u0 := db.StoreUsage()
	for i, s := range scanShapes {
		res, err := db.Execute(context.Background(), "tpch", s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.Stats.BytesScanned != cold[i] {
			t.Errorf("%s: warm cached pass billed %d B, cold %d B", s.name, res.Stats.BytesScanned, cold[i])
		}
	}
	if u := db.StoreUsage().Sub(u0); u.Gets != 0 || u.Heads != 0 {
		t.Errorf("warm cached pass reached the store: %d gets, %d heads", u.Gets, u.Heads)
	}

	path := filepath.Join("testdata", "scan_io.golden")
	if *updateScanIO {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("scan I/O counts changed (go test -run TestScanIOCounts -update . rewrites them):\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// scanIO loads sample data at scale sf into a fresh disk DataDir with the
// given read cache size, runs the shapes once and appends one golden line per shape. It
// returns the DB, closed when the test ends, and each shape's billed bytes.
func scanIO(t *testing.T, sf float64, cacheSize int64, got *strings.Builder) (*DB, []int64) {
	t.Helper()
	db, err := Open(Options{DataDir: t.TempDir(), CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.LoadSampleData("tpch", sf); err != nil {
		t.Fatal(err)
	}
	var billed []int64
	for _, s := range scanShapes {
		u0 := db.StoreUsage()
		r0, procIO := procReadChars()
		res, err := db.Execute(context.Background(), "tpch", s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		r1, _ := procReadChars()
		u := db.StoreUsage().Sub(u0)
		fmt.Fprintf(got, "%s %d %d %d\n", s.name, res.Stats.BytesScanned, u.Gets, u.BytesRead)
		billed = append(billed, res.Stats.BytesScanned)
		if procIO {
			t.Logf("%s (cache %d B): %d B returned by the store, %d B read by the kernel", s.name, cacheSize, u.BytesRead, r1-r0)
		}
		if limit := 1.1*float64(u.BytesRead) + 64<<10; procIO && float64(r1-r0) > limit {
			t.Errorf("%s: the kernel read %d B for %d B returned by the store (%.1fx), want <= %.0f B",
				s.name, r1-r0, u.BytesRead, float64(r1-r0)/float64(u.BytesRead), limit)
		}
	}
	return db, billed
}

// procReadChars returns this process's rchar (bytes read through read
// system calls, pread included) from /proc/self/io; ok is false where the
// file cannot be read.
func procReadChars() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, found := strings.CutPrefix(line, "rchar:"); found {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}
