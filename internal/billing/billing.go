// Package billing implements the pricing model of Section III-B: three
// service levels with listed $/TB-scanned prices (Immediate $5, Relaxed $2,
// Best-of-effort $0.5), plus the backend ledger that logs each query's
// actual resource cost (VM-seconds, CF GB-seconds, object-store requests),
// and the aggregations behind the Report tab's "cost visibility" charts
// (Sec. IV-B).
package billing

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// Level is a query's performance service level.
type Level uint8

// The three service levels of Section III-B.
const (
	// Immediate starts executing the query at once; CFs may be used, so
	// the price upper bound is the highest.
	Immediate Level = iota
	// Relaxed may queue the query up to a grace period so it can run on
	// cost-efficient VMs.
	Relaxed
	// BestEffort runs only when the VM cluster is idle, with no pending
	// time guarantee.
	BestEffort
)

// String names the level as the UI shows it.
func (l Level) String() string {
	switch l {
	case Immediate:
		return "immediate"
	case Relaxed:
		return "relaxed"
	case BestEffort:
		return "best-of-effort"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// ParseLevel parses a level name.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "immediate", "IMMEDIATE", "Immediate":
		return Immediate, nil
	case "relaxed", "RELAXED", "Relaxed":
		return Relaxed, nil
	case "best-of-effort", "besteffort", "best_effort", "BestEffort", "Best-of-effort":
		return BestEffort, nil
	default:
		return 0, fmt.Errorf("billing: unknown service level %q", s)
	}
}

// Levels lists all levels in display order.
func Levels() []Level { return []Level{Immediate, Relaxed, BestEffort} }

// PriceBook holds every unit price the system bills with. The defaults
// mirror the demo's numbers: $5/TB-scan at Immediate with 40% and 10%
// multipliers for Relaxed and Best-of-effort, a ~$0.096/h VM, and
// Lambda-style CF pricing whose unit price lands ≈10× the VM's
// (inside the paper's 9–24× band).
type PriceBook struct {
	// ScanPricePerTB is the Immediate-level list price per TB scanned.
	ScanPricePerTB float64
	// LevelMultipliers scale the scan price per level.
	LevelMultipliers map[Level]float64

	// VMPerSecond is the per-VM-second infrastructure price.
	VMPerSecond float64
	// VMSlots is the slots-per-VM used to express slot-second prices.
	VMSlots int
	// CFPerGBSecond and CFPerInvocation are the CF prices.
	CFPerGBSecond   float64
	CFPerInvocation float64
	// CFMemoryGB is the per-worker memory size.
	CFMemoryGB float64

	// S3GetPer1000 and S3PutPer1000 price object-store requests.
	S3GetPer1000 float64
	S3PutPer1000 float64
}

// Default returns the demo's price book.
func Default() PriceBook {
	return PriceBook{
		ScanPricePerTB: 5.0,
		LevelMultipliers: map[Level]float64{
			Immediate:  1.0,
			Relaxed:    0.4,
			BestEffort: 0.1,
		},
		VMPerSecond:     0.096 / 3600,
		VMSlots:         4,
		CFPerGBSecond:   0.0000166667,
		CFPerInvocation: 0.0000002,
		CFMemoryGB:      4,
		S3GetPer1000:    0.0004,
		S3PutPer1000:    0.005,
	}
}

// ListPrice computes a query's listed price from bytes scanned and level:
// the paper's $/TB model ($5, $2, $0.5 per TB at the three levels).
func (p PriceBook) ListPrice(level Level, bytesScanned int64) float64 {
	tb := float64(bytesScanned) / 1e12
	mult, ok := p.LevelMultipliers[level]
	if !ok {
		mult = 1
	}
	return p.ScanPricePerTB * mult * tb
}

// ScanPricePerTBAt returns the effective $/TB at a level.
func (p PriceBook) ScanPricePerTBAt(level Level) float64 {
	mult, ok := p.LevelMultipliers[level]
	if !ok {
		mult = 1
	}
	return p.ScanPricePerTB * mult
}

// UnitPriceRatio is the CF:VM slot-second price ratio implied by the book.
func (p PriceBook) UnitPriceRatio() float64 {
	vmSlotSecond := p.VMPerSecond / float64(p.VMSlots)
	return p.CFPerGBSecond * p.CFMemoryGB / vmSlotSecond
}

// ResourceUsage is the infrastructure a query actually consumed.
type ResourceUsage struct {
	VMSeconds     float64
	CFGBSeconds   float64
	CFInvocations int64
	S3Gets        int64
	S3Puts        int64
}

// Add merges usages.
func (u *ResourceUsage) Add(o ResourceUsage) {
	u.VMSeconds += o.VMSeconds
	u.CFGBSeconds += o.CFGBSeconds
	u.CFInvocations += o.CFInvocations
	u.S3Gets += o.S3Gets
	u.S3Puts += o.S3Puts
}

// Cost prices the usage with the book.
func (p PriceBook) Cost(u ResourceUsage) float64 {
	return u.VMSeconds*p.VMPerSecond +
		u.CFGBSeconds*p.CFPerGBSecond +
		float64(u.CFInvocations)*p.CFPerInvocation +
		float64(u.S3Gets)/1000*p.S3GetPer1000 +
		float64(u.S3Puts)/1000*p.S3PutPer1000
}

// QueryBill is the ledger entry for one query — everything the Report tab
// shows per query: status, pending/execution time, listed price and actual
// resource cost (Sec. IV, "we also log the actual resource costs of each
// query in the backend").
type QueryBill struct {
	QueryID string
	Level   Level
	Status  string // finished | failed
	Error   string

	SubmitTime time.Time
	StartTime  time.Time
	EndTime    time.Time

	BytesScanned int64
	RowsReturned int64
	UsedCF       bool
	// CacheHit marks a query answered from the result cache: zero bytes
	// scanned, so both list price and resource cost are zero — the billed
	// price is defined by bytes scanned, and a hit scans nothing.
	CacheHit bool

	Usage        ResourceUsage
	ListPrice    float64
	ResourceCost float64
}

// PendingTime is how long the query waited before execution.
func (b QueryBill) PendingTime() time.Duration { return b.StartTime.Sub(b.SubmitTime) }

// ExecTime is how long execution took.
func (b QueryBill) ExecTime() time.Duration { return b.EndTime.Sub(b.StartTime) }

// Ledger collects query bills. Safe for concurrent use.
//
// It keeps them as an append-only log of encoded records (see appendRecord)
// in fixed blockSize blocks. A record holds no pointers, so the log costs
// the collector nothing to scan and a bill costs a few dozen bytes instead
// of a QueryBill with its strings; it is also the form persistence would
// write. Every read decodes the log: times come back equal to (not
// identical with) the appended ones, in UTC and without a monotonic
// reading, and everything else comes back bit for bit.
type Ledger struct {
	mu      sync.RWMutex
	blocks  [][]byte  // the log: full blocks, then the one being filled
	n       int       // bills in the log
	last    time.Time // the newest record's submit time, its successor's base
	scratch []byte    // the record being encoded
}

// blockSize is the size of one log block. A record never spans two; one
// larger than a block gets a block of its own.
const blockSize = 64 << 10

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Append records a bill.
func (l *Ledger) Append(b QueryBill) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scratch = appendRecord(l.scratch[:0], &b, l.last)
	l.last = b.SubmitTime
	l.n++
	if k := len(l.blocks); k > 0 && len(l.blocks[k-1])+len(l.scratch) <= cap(l.blocks[k-1]) {
		l.blocks[k-1] = append(l.blocks[k-1], l.scratch...)
		return
	}
	block := make([]byte, 0, max(blockSize, len(l.scratch)))
	l.blocks = append(l.blocks, append(block, l.scratch...))
}

// each decodes the log in append order.
func (l *Ledger) each(fn func(b *QueryBill)) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var b QueryBill
	for _, block := range l.blocks {
		for len(block) > 0 {
			block = decodeRecord(block, &b, b.SubmitTime)
			fn(&b)
		}
	}
}

// All returns every bill ordered by submit time. The sort is stable, so
// bills that share a submit time — common on a virtual clock — come back
// in the order they were appended.
func (l *Ledger) All() []QueryBill {
	out := make([]QueryBill, 0, l.Len())
	l.each(func(b *QueryBill) { out = append(out, *b) })
	sortBySubmit(out)
	return out
}

func sortBySubmit(bills []QueryBill) {
	slices.SortStableFunc(bills, func(a, b QueryBill) int { return a.SubmitTime.Compare(b.SubmitTime) })
}

// Len reports the number of bills.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// Record flags: the booleans, how the status is stored, and which
// optional fields follow.
const (
	recUsedCF = 1 << iota
	recCacheHit
	recFailed     // status "failed"
	recStatusText // any other status than "finished" or "failed", as text
	recError
	recUsage
	recListPrice
	recResourceCost
)

// appendRecord encodes b after buf. The layout, every integer a varint
// (zigzag when signed) and every float its IEEE bits, 8 bytes little
// endian:
//
//	flags, level
//	query ID, [status text], [error]   each a length and the bytes
//	submit time after base, start after submit, end after start  (see appendTime)
//	bytes scanned, rows returned
//	[usage: VM seconds, CF GB-seconds, CF invocations, S3 GETs, S3 PUTs]
//	[list price], [resource cost]
//
// Bracketed fields are present only when their flag is set: usage when any
// of it is not zero, a price when its bits are not zero (so -0 and NaN
// payloads survive).
func appendRecord(buf []byte, b *QueryBill, base time.Time) []byte {
	u := &b.Usage
	hasUsage := math.Float64bits(u.VMSeconds)|math.Float64bits(u.CFGBSeconds) != 0 ||
		u.CFInvocations|u.S3Gets|u.S3Puts != 0
	flags := flag(b.UsedCF, recUsedCF) |
		flag(b.CacheHit, recCacheHit) |
		flag(b.Status == "failed", recFailed) |
		flag(b.Status != "finished" && b.Status != "failed", recStatusText) |
		flag(b.Error != "", recError) |
		flag(hasUsage, recUsage) |
		flag(math.Float64bits(b.ListPrice) != 0, recListPrice) |
		flag(math.Float64bits(b.ResourceCost) != 0, recResourceCost)

	buf = append(buf, flags, byte(b.Level))
	buf = appendString(buf, b.QueryID)
	if flags&recStatusText != 0 {
		buf = appendString(buf, b.Status)
	}
	if flags&recError != 0 {
		buf = appendString(buf, b.Error)
	}
	buf = appendTime(buf, b.SubmitTime, base)
	buf = appendTime(buf, b.StartTime, b.SubmitTime)
	buf = appendTime(buf, b.EndTime, b.StartTime)
	buf = binary.AppendVarint(buf, b.BytesScanned)
	buf = binary.AppendVarint(buf, b.RowsReturned)
	if hasUsage {
		buf = appendFloat(buf, u.VMSeconds)
		buf = appendFloat(buf, u.CFGBSeconds)
		buf = binary.AppendVarint(buf, u.CFInvocations)
		buf = binary.AppendVarint(buf, u.S3Gets)
		buf = binary.AppendVarint(buf, u.S3Puts)
	}
	if flags&recListPrice != 0 {
		buf = appendFloat(buf, b.ListPrice)
	}
	if flags&recResourceCost != 0 {
		buf = appendFloat(buf, b.ResourceCost)
	}
	return buf
}

// decodeRecord decodes the record appendRecord wrote at the head of buf,
// whose submit time was encoded against base, into b, and returns the rest
// of buf.
func decodeRecord(buf []byte, b *QueryBill, base time.Time) []byte {
	flags, level := buf[0], buf[1]
	buf = buf[2:]
	*b = QueryBill{
		Level:    Level(level),
		Status:   "finished",
		UsedCF:   flags&recUsedCF != 0,
		CacheHit: flags&recCacheHit != 0,
	}
	b.QueryID, buf = readString(buf)
	switch {
	case flags&recStatusText != 0:
		b.Status, buf = readString(buf)
	case flags&recFailed != 0:
		b.Status = "failed"
	}
	if flags&recError != 0 {
		b.Error, buf = readString(buf)
	}
	b.SubmitTime, buf = readTime(buf, base)
	b.StartTime, buf = readTime(buf, b.SubmitTime)
	b.EndTime, buf = readTime(buf, b.StartTime)
	b.BytesScanned, buf = readVarint(buf)
	b.RowsReturned, buf = readVarint(buf)
	if flags&recUsage != 0 {
		u := &b.Usage
		u.VMSeconds, buf = readFloat(buf)
		u.CFGBSeconds, buf = readFloat(buf)
		u.CFInvocations, buf = readVarint(buf)
		u.S3Gets, buf = readVarint(buf)
		u.S3Puts, buf = readVarint(buf)
	}
	if flags&recListPrice != 0 {
		b.ListPrice, buf = readFloat(buf)
	}
	if flags&recResourceCost != 0 {
		b.ResourceCost, buf = readFloat(buf)
	}
	return buf
}

// appendTime encodes t relative to base. The usual case — the two within
// about 34 years — is one varint: the signed nanoseconds between them,
// zigzagged and shifted left once. Anything further apart writes 1 and
// then the seconds and nanoseconds between them as two varints, which
// covers every time.Time.
func appendTime(buf []byte, t, base time.Time) []byte {
	ds := t.Unix() - base.Unix() // wraps, and wraps back in readTime
	dns := int64(t.Nanosecond() - base.Nanosecond())
	if -1<<30 < ds && ds < 1<<30 {
		d := ds*1e9 + dns
		return binary.AppendUvarint(buf, uint64(d<<1^d>>63)<<1)
	}
	buf = append(buf, 1)
	buf = binary.AppendVarint(buf, ds)
	return binary.AppendVarint(buf, dns)
}

func readTime(buf []byte, base time.Time) (time.Time, []byte) {
	v, n := binary.Uvarint(buf)
	buf = buf[n:]
	var ds, dns int64
	if v&1 == 0 {
		z := v >> 1
		d := int64(z>>1) ^ -int64(z&1)
		ds, dns = d/1e9, d%1e9
	} else {
		ds, buf = readVarint(buf)
		dns, buf = readVarint(buf)
	}
	return time.Unix(base.Unix()+ds, int64(base.Nanosecond())+dns).UTC(), buf
}

func flag(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte) {
	n, k := binary.Uvarint(buf)
	buf = buf[k:]
	return string(buf[:n]), buf[n:]
}

func readVarint(buf []byte) (int64, []byte) {
	v, n := binary.Varint(buf)
	return v, buf[n:]
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func readFloat(buf []byte) (float64, []byte) {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:]
}

// LevelSummary aggregates one service level's spending.
type LevelSummary struct {
	Level        Level
	Queries      int
	Finished     int
	Failed       int
	BytesScanned int64
	ListPrice    float64
	ResourceCost float64
	AvgPending   time.Duration
	MaxPending   time.Duration
	AvgExec      time.Duration
}

// Summary aggregates the ledger per level.
func (l *Ledger) Summary() map[Level]LevelSummary {
	out := make(map[Level]LevelSummary)
	var pendSum, execSum map[Level]time.Duration
	pendSum = make(map[Level]time.Duration)
	execSum = make(map[Level]time.Duration)
	for _, b := range l.All() {
		s := out[b.Level]
		s.Level = b.Level
		s.Queries++
		if b.Status == "finished" {
			s.Finished++
		} else {
			s.Failed++
		}
		s.BytesScanned += b.BytesScanned
		s.ListPrice += b.ListPrice
		s.ResourceCost += b.ResourceCost
		pendSum[b.Level] += b.PendingTime()
		execSum[b.Level] += b.ExecTime()
		if b.PendingTime() > s.MaxPending {
			s.MaxPending = b.PendingTime()
		}
		out[b.Level] = s
	}
	for lev, s := range out {
		if s.Queries > 0 {
			s.AvgPending = pendSum[lev] / time.Duration(s.Queries)
			s.AvgExec = execSum[lev] / time.Duration(s.Queries)
		}
		out[lev] = s
	}
	return out
}

// TimelinePoint is one bucket of the Report tab's query-count chart.
type TimelinePoint struct {
	Start  time.Time
	Counts map[Level]int
	Total  int
}

// Timeline buckets query submissions between from and to by step — the
// data behind the "query count per minute in the timeline" chart that the
// performance and cost charts brush-link against.
func (l *Ledger) Timeline(from, to time.Time, step time.Duration) []TimelinePoint {
	if step <= 0 {
		step = time.Minute
	}
	if !to.After(from) {
		return nil
	}
	n := int(to.Sub(from)/step) + 1
	points := make([]TimelinePoint, n)
	for i := range points {
		points[i] = TimelinePoint{Start: from.Add(time.Duration(i) * step), Counts: make(map[Level]int)}
	}
	l.each(func(b *QueryBill) {
		if b.SubmitTime.Before(from) || b.SubmitTime.After(to) {
			return
		}
		i := int(b.SubmitTime.Sub(from) / step)
		if i >= 0 && i < n {
			points[i].Counts[b.Level]++
			points[i].Total++
		}
	})
	return points
}

// Between returns the bills submitted within [from, to] — the brush
// selection of the Report tab — in All's order.
func (l *Ledger) Between(from, to time.Time) []QueryBill {
	var out []QueryBill
	l.each(func(b *QueryBill) {
		if !b.SubmitTime.Before(from) && !b.SubmitTime.After(to) {
			out = append(out, *b)
		}
	})
	sortBySubmit(out)
	return out
}
