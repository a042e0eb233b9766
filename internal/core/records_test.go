//go:build go1.24

package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/admission"
	"repro/internal/billing"
	"repro/internal/cfsim"
	"repro/internal/qcache"
	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// mergeOnlyExecutor runs every query as a CF job of no tasks, whose merge
// is the whole query and completes at once: the stub outcome's one-row
// result, or a failure for SQL text starting "fail". Safe for concurrent
// use; it has no VM tier.
type mergeOnlyExecutor struct{}

func (mergeOnlyExecutor) VMRun(*Query, func(Outcome)) { panic("mergeOnlyExecutor has no VM tier") }

func (mergeOnlyExecutor) CFPlan(q *Query, _ int) (CFJob, error) {
	return mergeOnlyJob{fail: strings.HasPrefix(q.SQL, "fail")}, nil
}

type mergeOnlyJob struct{ fail bool }

func (mergeOnlyJob) NumTasks() int                                     { return 0 }
func (mergeOnlyJob) RunTask(int, *cfsim.Invocation, func(TaskOutcome)) {}
func (mergeOnlyJob) Abort()                                            {}
func (j mergeOnlyJob) Merge(done func(Outcome)) {
	if j.fail {
		done(Outcome{Err: errors.New("merge failed")})
		return
	}
	done(stubOutcome())
}

// recordsRig is a coordinator whose every VM slot is held: Immediate runs
// on mergeOnlyExecutor's CF, Relaxed waits out its hour of grace until it
// is canceled, and Best-of-effort is shed on arrival (a zero queue cap).
func recordsRig(t *testing.T) *Coordinator {
	clk := vclock.NewReal()
	cluster := vmsim.NewCluster(clk, vmsim.Config{SlotsPerVM: 2}, 1)
	for lease, ok := cluster.TryAcquire(); ok; lease, ok = cluster.TryAcquire() {
		t.Cleanup(lease.Release)
	}
	cfg := Config{
		GracePeriod: time.Hour,
		ResultCache: qcache.NewResultCache(1 << 20),
		Admission:   &admission.Config{QueueCap: map[billing.Level]int{billing.BestEffort: 0}},
	}
	return NewCoordinator(clk, cfg, cluster, cfsim.NewService(clk, cfsim.Config{}), mergeOnlyExecutor{}, billing.NewLedger())
}

// recordKinds are the terminal queries the test mixes: a result-cache hit
// on a one-row result, an executed one-row result, a failure, a shed and a
// cancel.
var recordKinds = []string{"hit", "run", "fail", "shed", "cancel"}

// endOne drives one query of the kind to its terminal status.
func endOne(t *testing.T, c *Coordinator, kind string) *Query {
	var q *Query
	switch kind {
	case "hit":
		q = c.Submit("hit", billing.Immediate, PlanPayload{ResultKey: "hot"})
	case "run":
		q = c.Submit("run", billing.Immediate, PlanPayload{})
	case "fail":
		q = c.Submit("fail", billing.Immediate, PlanPayload{})
	case "shed":
		q = c.Submit("shed", billing.BestEffort, PlanPayload{})
	case "cancel":
		q = c.Submit("cancel", billing.Relaxed, PlanPayload{})
		if err := c.Cancel(q.ID); err != nil {
			t.Errorf("cancel %s: %v", q.ID, err)
		}
	}
	want := map[string]Status{"hit": StatusFinished, "run": StatusFinished, "fail": StatusFailed,
		"shed": StatusShed, "cancel": StatusCanceled}[kind]
	if got := q.Status(); got != want {
		t.Errorf("%s query %s is %s, want %s", kind, q.ID, got, want)
	}
	return q
}

// endOldest ends one query of every kind, the first of them filling the
// result-cache entry the hits read, and keeps only weak pointers to them.
func endOldest(t *testing.T, c *Coordinator) (ids []string, ptrs []weak.Pointer[Query]) {
	fill := c.Submit("fill", billing.Immediate, PlanPayload{ResultKey: "hot"})
	ids, ptrs = append(ids, fill.ID), append(ptrs, weak.Make(fill))
	for _, kind := range recordKinds {
		q := endOne(t, c, kind)
		ids, ptrs = append(ids, q.ID), append(ptrs, weak.Make(q))
	}
	return ids, ptrs
}

// TestTerminalRecordsCollectable: a coordinator that has ended far more
// than terminalRecords queries — cache hits on a tiny result, executions,
// failures, sheds and cancels from four submitters at once — holds the
// newest terminalRecords of them and its live queries, and nothing pins
// the ones it forgot: tiny results fit the row budget by the thousand, so
// a rows list bounded only in bytes would keep every one of them alive.
func TestTerminalRecordsCollectable(t *testing.T) {
	c := recordsRig(t)
	live := c.Submit("live", billing.Relaxed, PlanPayload{})
	oldIDs, oldPtrs := endOldest(t, c)

	const submitters = 4
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < terminalRecords+500; i += submitters {
				endOne(t, c, recordKinds[i%len(recordKinds)])
			}
		}(g)
	}
	wg.Wait()
	newest := endOne(t, c, "hit")

	runtime.GC()
	for i, p := range oldPtrs {
		if p.Value() != nil {
			t.Errorf("forgotten query %s (%s) is still reachable", oldIDs[i], append([]string{"fill"}, recordKinds...)[i])
		}
		if _, ok := c.Get(oldIDs[i]); ok || !c.Issued(oldIDs[i]) {
			t.Errorf("%s: Get found it = %v, Issued = %v; want forgotten but issued", oldIDs[i], ok, c.Issued(oldIDs[i]))
		}
	}
	if n := len(c.Queries()); n > terminalRecords+1 {
		t.Errorf("%d queries held, want at most %d terminal + 1 live", n, terminalRecords)
	}
	if q, ok := c.Get(live.ID); !ok || q.Status() != StatusQueued {
		t.Errorf("the live query %s was dropped with the terminal records", live.ID)
	}
	expectRows(t, newest, 1)
	if newest.Bill() != (Bill{}) || !newest.CacheHit() {
		t.Errorf("newest hit: bill %+v, cacheHit %v", newest.Bill(), newest.CacheHit())
	}
	for _, id := range []string{"q-999999999", "q-0", "q-1", "q-000000", "x-000001", fmt.Sprintf("q-%07d", 1)} {
		if c.Issued(id) {
			t.Errorf("Issued(%q) = true", id)
		}
	}
	if err := c.Cancel(live.ID); err != nil {
		t.Fatal(err)
	}
}
