// Package billing implements the pricing model of Section III-B: three
// service levels with listed $/TB-scanned prices (Immediate $5, Relaxed $2,
// Best-of-effort $0.5), plus the backend ledger that logs each query's
// actual resource cost (VM-seconds, CF GB-seconds, object-store requests),
// and the aggregations behind the Report tab's "cost visibility" charts
// (Sec. IV-B).
package billing

import (
	"fmt"
	"sort"
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
	SQL     string
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
type Ledger struct {
	mu    sync.RWMutex
	bills []QueryBill
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Append records a bill.
func (l *Ledger) Append(b QueryBill) {
	l.mu.Lock()
	l.bills = append(l.bills, b)
	l.mu.Unlock()
}

// All returns bills ordered by submit time.
func (l *Ledger) All() []QueryBill {
	l.mu.RLock()
	out := make([]QueryBill, len(l.bills))
	copy(out, l.bills)
	l.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].SubmitTime.Before(out[j].SubmitTime) })
	return out
}

// Len reports the number of bills.
func (l *Ledger) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.bills)
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
	for _, b := range l.All() {
		if b.SubmitTime.Before(from) || b.SubmitTime.After(to) {
			continue
		}
		i := int(b.SubmitTime.Sub(from) / step)
		if i >= 0 && i < n {
			points[i].Counts[b.Level]++
			points[i].Total++
		}
	}
	return points
}

// Between returns the bills submitted within [from, to] — the brush
// selection of the Report tab.
func (l *Ledger) Between(from, to time.Time) []QueryBill {
	var out []QueryBill
	for _, b := range l.All() {
		if !b.SubmitTime.Before(from) && !b.SubmitTime.After(to) {
			out = append(out, b)
		}
	}
	return out
}
