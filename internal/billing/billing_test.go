package billing

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2025, 6, 1, 9, 0, 0, 0, time.UTC)

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		Immediate:  "immediate",
		Relaxed:    "relaxed",
		BestEffort: "best-of-effort",
	}
	for lev, want := range cases {
		if lev.String() != want {
			t.Errorf("%d.String() = %q", lev, lev.String())
		}
		parsed, err := ParseLevel(want)
		if err != nil || parsed != lev {
			t.Errorf("ParseLevel(%q) = %v, %v", want, parsed, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Errorf("ParseLevel accepted bogus")
	}
}

func TestListPricesMatchPaper(t *testing.T) {
	p := Default()
	tb := int64(1e12)
	if got := p.ListPrice(Immediate, tb); got != 5.0 {
		t.Errorf("immediate $/TB = %f, want 5", got)
	}
	if got := p.ListPrice(Relaxed, tb); got != 2.0 {
		t.Errorf("relaxed $/TB = %f, want 2 (40%%)", got)
	}
	if got := p.ListPrice(BestEffort, tb); got != 0.5 {
		t.Errorf("best-of-effort $/TB = %f, want 0.5 (10%%)", got)
	}
	if got := p.ScanPricePerTBAt(Relaxed); got != 2.0 {
		t.Errorf("ScanPricePerTBAt = %f", got)
	}
}

func TestUnitPriceRatioInBand(t *testing.T) {
	r := Default().UnitPriceRatio()
	if r < 9 || r > 24 {
		t.Fatalf("CF:VM unit price ratio %f outside the paper's 9-24x band", r)
	}
}

func TestListPriceMonotonicProperty(t *testing.T) {
	p := Default()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		for _, lev := range Levels() {
			if p.ListPrice(lev, x) > p.ListPrice(lev, y) {
				return false
			}
		}
		// Levels are ordered by price for the same bytes.
		return p.ListPrice(Immediate, y) >= p.ListPrice(Relaxed, y) &&
			p.ListPrice(Relaxed, y) >= p.ListPrice(BestEffort, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceCost(t *testing.T) {
	p := Default()
	u := ResourceUsage{VMSeconds: 3600, CFGBSeconds: 100, CFInvocations: 10, S3Gets: 2000, S3Puts: 1000}
	got := p.Cost(u)
	want := 3600*p.VMPerSecond + 100*p.CFPerGBSecond + 10*p.CFPerInvocation + 2*p.S3GetPer1000 + 1*p.S3PutPer1000
	if got != want {
		t.Fatalf("cost = %f, want %f", got, want)
	}
	var sum ResourceUsage
	sum.Add(u)
	sum.Add(u)
	if sum.VMSeconds != 7200 || sum.CFInvocations != 20 {
		t.Fatalf("Add wrong: %+v", sum)
	}
}

func mkBill(id string, lev Level, submitOffset, pend, exec time.Duration, bytes int64, status string) QueryBill {
	sub := t0.Add(submitOffset)
	return QueryBill{
		QueryID: id, Level: lev, Status: status,
		SubmitTime: sub, StartTime: sub.Add(pend), EndTime: sub.Add(pend + exec),
		BytesScanned: bytes,
	}
}

func TestLedgerSummary(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("q1", Immediate, 0, 0, 2*time.Second, 1000, "finished"))
	l.Append(mkBill("q2", Immediate, time.Minute, time.Second, 4*time.Second, 3000, "failed"))
	l.Append(mkBill("q3", Relaxed, 2*time.Minute, 30*time.Second, 2*time.Second, 500, "finished"))

	s := l.Summary()
	im := s[Immediate]
	if im.Queries != 2 || im.Finished != 1 || im.Failed != 1 || im.BytesScanned != 4000 {
		t.Fatalf("immediate summary = %+v", im)
	}
	if im.AvgPending != 500*time.Millisecond || im.MaxPending != time.Second {
		t.Fatalf("pending stats = %+v", im)
	}
	if im.AvgExec != 3*time.Second {
		t.Fatalf("exec stats = %+v", im)
	}
	rx := s[Relaxed]
	if rx.Queries != 1 || rx.MaxPending != 30*time.Second {
		t.Fatalf("relaxed summary = %+v", rx)
	}
}

func TestLedgerOrderedBySubmitTime(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("late", Immediate, 10*time.Minute, 0, time.Second, 1, "finished"))
	l.Append(mkBill("early", Immediate, 0, 0, time.Second, 1, "finished"))
	all := l.All()
	if all[0].QueryID != "early" || all[1].QueryID != "late" {
		t.Fatalf("order wrong: %v %v", all[0].QueryID, all[1].QueryID)
	}
}

// Bills that share a submit instant — every bill of a step on a virtual
// clock — read back in append order, on every read.
func TestLedgerTiesInAppendOrder(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("later", Immediate, time.Second, 0, time.Second, 1, "finished"))
	for i := 0; i < 1000; i++ {
		l.Append(mkBill(fmt.Sprintf("q-%06d", i), Level(i%3), 0, 0, time.Second, 1, "finished"))
	}
	for read := 0; read < 2; read++ {
		all := l.All()
		if len(all) != 1001 || all[1000].QueryID != "later" {
			t.Fatalf("read %d: %d bills, last %q", read, len(all), all[len(all)-1].QueryID)
		}
		for i, b := range all[:1000] {
			if want := fmt.Sprintf("q-%06d", i); b.QueryID != want {
				t.Fatalf("read %d: bill %d is %s, want %s", read, i, b.QueryID, want)
			}
		}
	}
}

// sameBill reports whether got is want as the ledger promises to return
// it: times equal, floats bit for bit, everything else identical.
func sameBill(got, want QueryBill) bool {
	bits := math.Float64bits
	g, w := got.Usage, want.Usage
	return got.QueryID == want.QueryID && got.Level == want.Level &&
		got.Status == want.Status && got.Error == want.Error &&
		got.SubmitTime.Equal(want.SubmitTime) && got.StartTime.Equal(want.StartTime) &&
		got.EndTime.Equal(want.EndTime) &&
		got.BytesScanned == want.BytesScanned && got.RowsReturned == want.RowsReturned &&
		got.UsedCF == want.UsedCF && got.CacheHit == want.CacheHit &&
		bits(g.VMSeconds) == bits(w.VMSeconds) && bits(g.CFGBSeconds) == bits(w.CFGBSeconds) &&
		g.CFInvocations == w.CFInvocations && g.S3Gets == w.S3Gets && g.S3Puts == w.S3Puts &&
		bits(got.ListPrice) == bits(want.ListPrice) && bits(got.ResourceCost) == bits(want.ResourceCost)
}

// FuzzLedgerRoundTrip: every field of every bill comes back from the log
// as it went in — times in any order and at any distance (start before
// submit, end before start, far past and far future), floats bit for bit
// (NaN payloads, -0, ±Inf), negative counts, and IDs, statuses and errors
// that are empty, long or not UTF-8. Each input appends two bills, so the
// second's submit time is encoded against the first's.
func FuzzLedgerRoundTrip(f *testing.F) {
	served := t0.Add(123456789)
	f.Add("q-000001", "", "finished", uint8(Immediate), served.Unix(), int64(served.Nanosecond()),
		int64(40_000), int64(250_000), int64(1<<20), int64(12), false, false,
		math.Float64bits(0.0007), uint64(0), int64(0), int64(2), int64(0),
		math.Float64bits(5.24e-6), math.Float64bits(1.1e-8), int64(-3_000_000))
	f.Add("", strings.Repeat("é", 2048), "failed", uint8(BestEffort), int64(0), int64(0),
		int64(-1), int64(-math.MaxInt64), int64(-5), int64(-1), true, true,
		math.Float64bits(math.NaN())|1, math.Float64bits(math.Copysign(0, -1)), int64(-7), int64(math.MinInt64), int64(math.MaxInt64),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), int64(math.MaxInt64))
	f.Add(strings.Repeat("x", 4096), "\xff\xfe", "\x80", uint8(200), int64(math.MaxInt64), int64(999_999_999),
		int64(math.MaxInt64), int64(math.MinInt64), int64(math.MinInt64), int64(math.MaxInt64), true, false,
		uint64(0x7ff0000000000001), uint64(1), int64(1), int64(1), int64(1),
		uint64(0x8000000000000000), uint64(0xfff8000000000000), int64(math.MinInt64))
	f.Add("q-1", "boom", "", uint8(Relaxed), int64(math.MinInt64), int64(-1),
		int64(0), int64(0), int64(0), int64(0), false, true,
		uint64(0), uint64(0), int64(0), int64(0), int64(0), uint64(0), uint64(0), int64(1))
	f.Fuzz(func(t *testing.T, id, errText, status string, level uint8, sec, nsec, startD, endD, bytes, rows int64,
		usedCF, cacheHit bool, vmBits, cfBits uint64, inv, gets, puts int64, listBits, costBits uint64, nextD int64) {
		submit := time.Unix(sec, nsec)
		first := QueryBill{
			QueryID: id, Level: Level(level), Status: status, Error: errText,
			SubmitTime: submit, StartTime: submit.Add(time.Duration(startD)),
			BytesScanned: bytes, RowsReturned: rows, UsedCF: usedCF, CacheHit: cacheHit,
			Usage: ResourceUsage{
				VMSeconds: math.Float64frombits(vmBits), CFGBSeconds: math.Float64frombits(cfBits),
				CFInvocations: inv, S3Gets: gets, S3Puts: puts,
			},
			ListPrice: math.Float64frombits(listBits), ResourceCost: math.Float64frombits(costBits),
		}
		first.EndTime = first.StartTime.Add(time.Duration(endD))
		second := QueryBill{
			QueryID: errText, Level: Level(^level), Status: id, Error: status,
			SubmitTime: time.Unix(nextD, sec).In(time.Local), StartTime: time.Unix(sec, startD),
			EndTime: time.Unix(0, nextD), BytesScanned: ^bytes, RowsReturned: -rows,
			UsedCF: !usedCF, CacheHit: !cacheHit,
			Usage:     ResourceUsage{VMSeconds: math.Float64frombits(listBits), S3Puts: inv},
			ListPrice: math.Float64frombits(costBits),
		}
		l := NewLedger()
		l.Append(first)
		l.Append(second)
		want := []QueryBill{first, second}
		if second.SubmitTime.Before(first.SubmitTime) {
			want[0], want[1] = second, first
		}
		got := l.All()
		if len(got) != 2 {
			t.Fatalf("All returned %d bills, want 2", len(got))
		}
		for i := range want {
			if !sameBill(got[i], want[i]) {
				t.Fatalf("bill %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	})
}

// Ten thousand bills of the shape the server appends — a q-%06d ID, no
// error, no usage, times microseconds apart — fit ten 64 KiB blocks of
// log: at most 64 bytes a bill.
func TestLedgerLogBudget(t *testing.T) {
	const n = 10_000
	p := Default()
	l := NewLedger()
	at := t0
	for i := 0; i < n; i++ {
		at = at.Add(time.Duration(50+i%200) * time.Microsecond)
		lev := Level(i % 3)
		scanned := int64(1 << (12 + i%9))
		b := QueryBill{
			QueryID: fmt.Sprintf("q-%06d", i+1), Level: lev, Status: "finished",
			SubmitTime: at, StartTime: at.Add(30 * time.Microsecond), EndTime: at.Add(time.Duration(200+i%900) * time.Microsecond),
			BytesScanned: scanned, RowsReturned: int64(i % 40), CacheHit: i%2 == 0,
			ListPrice: p.ListPrice(lev, scanned),
		}
		l.Append(b)
	}
	used, blocks := 0, 0
	for _, block := range l.blocks {
		used += len(block)
		blocks += cap(block)
	}
	t.Logf("%d bills: %d B of records (%.1f B a bill) in %d B of blocks", n, used, float64(used)/n, blocks)
	if blocks > 640<<10 {
		t.Fatalf("%d bills occupy %d B of log blocks, want at most %d", n, blocks, 640<<10)
	}
	if got := l.All(); len(got) != n || got[n-1].QueryID != fmt.Sprintf("q-%06d", n) {
		t.Fatalf("read back %d bills", len(got))
	}
}

func TestTimelineBuckets(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("a", Immediate, 10*time.Second, 0, time.Second, 1, "finished"))
	l.Append(mkBill("b", Relaxed, 20*time.Second, 0, time.Second, 1, "finished"))
	l.Append(mkBill("c", Relaxed, 70*time.Second, 0, time.Second, 1, "finished"))
	l.Append(mkBill("d", BestEffort, 180*time.Second, 0, time.Second, 1, "finished"))

	points := l.Timeline(t0, t0.Add(3*time.Minute), time.Minute)
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Total != 2 || points[0].Counts[Immediate] != 1 || points[0].Counts[Relaxed] != 1 {
		t.Fatalf("bucket0 = %+v", points[0])
	}
	if points[1].Total != 1 || points[1].Counts[Relaxed] != 1 {
		t.Fatalf("bucket1 = %+v", points[1])
	}
	if points[2].Total != 0 {
		t.Fatalf("bucket2 = %+v", points[2])
	}
	if points[3].Total != 1 || points[3].Counts[BestEffort] != 1 {
		t.Fatalf("bucket3 = %+v", points[3])
	}
}

func TestBetweenBrush(t *testing.T) {
	l := NewLedger()
	l.Append(mkBill("a", Immediate, 0, 0, time.Second, 1, "finished"))
	l.Append(mkBill("b", Immediate, time.Minute, 0, time.Second, 1, "finished"))
	l.Append(mkBill("c", Immediate, 2*time.Minute, 0, time.Second, 1, "finished"))
	got := l.Between(t0.Add(30*time.Second), t0.Add(90*time.Second))
	if len(got) != 1 || got[0].QueryID != "b" {
		t.Fatalf("brush = %+v", got)
	}
}

func TestTimelineEdgeCases(t *testing.T) {
	l := NewLedger()
	if pts := l.Timeline(t0, t0, time.Minute); pts != nil {
		t.Fatalf("empty window should be nil")
	}
	l.Append(mkBill("x", Immediate, -time.Hour, 0, time.Second, 1, "finished"))
	pts := l.Timeline(t0, t0.Add(time.Minute), 0) // default step
	if len(pts) != 2 || pts[0].Total != 0 {
		t.Fatalf("out-of-window bill counted: %+v", pts)
	}
}
