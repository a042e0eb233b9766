// Package autoscale implements the metrics collector and scaling manager
// of the Pixels-Turbo coordinator (Sec. III-A): it periodically samples
// cluster metrics and runs a plug-able, configurable scaling policy to
// decide whether to create or release VMs.
//
// The default policy is reactive target-utilization scaling with the lazy
// scale-in behaviour the paper's footnote 3 describes ("we tried to avoid
// [scaling in right before the next spike] by a lazy-scaling-in policy");
// an eager variant exists as the ablation baseline.
package autoscale

import (
	"math"
	"sync"
	"time"

	"repro/internal/vclock"
	"repro/internal/vmsim"
)

// Metrics is the signal the scaling policy sees each tick. Demand counts
// only Immediate and Relaxed work: Best-of-effort queries never trigger
// scale-out (Sec. III-B(3)).
type Metrics struct {
	Time         time.Time
	Running      int // ready VMs
	Booting      int
	TotalSlots   int
	BusySlots    int
	QueuedDemand int // pending Immediate+Relaxed tasks (slots wanted)
	Utilization  float64
}

// Policy decides the desired VM count. Implementations may keep state
// (e.g. lazy scale-in hold counters); the manager calls Desired once per
// tick from a single goroutine.
type Policy interface {
	Name() string
	Desired(m Metrics) int
}

// Decision records one tick for audit and tests.
type Decision struct {
	Time    time.Time
	Metrics Metrics
	Desired int
	Current int // running+booting at decision time
	Action  int // >0 launched, <0 terminated
}

// Manager ties a policy to the VM cluster on a tick interval.
type Manager struct {
	clock   vclock.Clock
	cluster *vmsim.Cluster
	policy  Policy
	collect func() Metrics

	mu        sync.Mutex
	ticker    *vclock.Ticker
	decisions []Decision
}

// NewManager builds a scaling manager. collect supplies the demand part of
// the metrics (the coordinator knows the queue; the cluster knows slots).
func NewManager(clock vclock.Clock, cluster *vmsim.Cluster, policy Policy, collect func() Metrics) *Manager {
	return &Manager{clock: clock, cluster: cluster, policy: policy, collect: collect}
}

// Start begins ticking at the given interval.
func (m *Manager) Start(interval time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ticker != nil {
		return
	}
	m.ticker = vclock.NewTicker(m.clock, interval, func(time.Time) { m.Tick() })
}

// Stop halts ticking.
func (m *Manager) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Tick runs one policy evaluation; exposed for deterministic tests.
func (m *Manager) Tick() {
	metrics := m.collect()
	desired := m.policy.Desired(metrics)
	running, booting := m.cluster.Size()
	current := running + booting
	action := 0
	switch {
	case desired > current:
		m.cluster.Launch(desired - current)
		action = desired - current
	case desired < current:
		// Terminate only idle VMs; retry naturally next tick.
		action = -m.cluster.Terminate(current - desired)
	}
	m.mu.Lock()
	m.decisions = append(m.decisions, Decision{
		Time: metrics.Time, Metrics: metrics, Desired: desired, Current: current, Action: action,
	})
	m.mu.Unlock()
}

// Decisions returns the audit log.
func (m *Manager) Decisions() []Decision {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Decision, len(m.decisions))
	copy(out, m.decisions)
	return out
}

// TargetUtilization is the default reactive policy: size the fleet so
// that (busy + queued) demand runs at the target utilization. Scale-out
// applies immediately; scale-in requires the shrink desire to persist for
// HoldTicks consecutive ticks (lazy scale-in). HoldTicks = 1 gives the
// eager ablation.
type TargetUtilization struct {
	SlotsPerVM int
	Target     float64 // e.g. 0.7
	MinVMs     int
	MaxVMs     int
	HoldTicks  int // consecutive shrink ticks required before scaling in

	holds   int
	lastUp  int // most recent non-shrunk desired size
	started bool
}

// Name implements Policy.
func (p *TargetUtilization) Name() string {
	if p.HoldTicks > 1 {
		return "target-utilization/lazy"
	}
	return "target-utilization/eager"
}

// Desired implements Policy.
func (p *TargetUtilization) Desired(m Metrics) int {
	if p.SlotsPerVM <= 0 {
		p.SlotsPerVM = 4
	}
	if p.Target <= 0 || p.Target > 1 {
		p.Target = 0.7
	}
	if p.MaxVMs <= 0 {
		p.MaxVMs = 64
	}
	if p.HoldTicks <= 0 {
		p.HoldTicks = 1
	}
	demandSlots := m.BusySlots + m.QueuedDemand
	want := int(math.Ceil(float64(demandSlots) / (p.Target * float64(p.SlotsPerVM))))
	want = clamp(want, p.MinVMs, p.MaxVMs)

	current := m.Running + m.Booting
	if !p.started {
		p.started = true
		p.lastUp = current
	}
	if want >= current {
		p.holds = 0
		p.lastUp = want
		return want
	}
	// Shrink desire: hold for HoldTicks ticks before acting.
	p.holds++
	if p.holds >= p.HoldTicks {
		p.holds = 0
		p.lastUp = want
		return want
	}
	return current
}

// QueueDepth scales out one VM per `PerVM` queued tasks beyond capacity,
// a simpler comparison policy.
type QueueDepth struct {
	SlotsPerVM int
	PerVM      int
	MinVMs     int
	MaxVMs     int
}

// Name implements Policy.
func (p *QueueDepth) Name() string { return "queue-depth" }

// Desired implements Policy.
func (p *QueueDepth) Desired(m Metrics) int {
	if p.SlotsPerVM <= 0 {
		p.SlotsPerVM = 4
	}
	if p.PerVM <= 0 {
		p.PerVM = p.SlotsPerVM
	}
	if p.MaxVMs <= 0 {
		p.MaxVMs = 64
	}
	needed := (m.BusySlots + p.SlotsPerVM - 1) / p.SlotsPerVM
	needed += (m.QueuedDemand + p.PerVM - 1) / p.PerVM
	return clamp(needed, p.MinVMs, p.MaxVMs)
}

// Static pins the fleet at a fixed size (the provisioned-cluster
// baseline).
type Static struct {
	N int
}

// Name implements Policy.
func (p *Static) Name() string { return "static" }

// Desired implements Policy.
func (p *Static) Desired(Metrics) int { return p.N }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
