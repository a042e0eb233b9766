// Package cfsim meters the cloud-function service that Pixels-Turbo uses
// as its high-elasticity compute tier: a concurrency ceiling, per-
// invocation + per-GB-second billing at a unit price roughly an order of
// magnitude above VMs (the paper cites 9–24×), injectable worker failures
// and, for the simulated executor only, modelled cold and warm start-up
// (hundreds of workers in about a second, vs 1–2 minutes for VMs). A real
// worker's start-up is measured, not modelled.
package cfsim

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/vclock"
)

// ErrThrottled is reported when the concurrency ceiling is hit and the
// invocation queue is full.
var ErrThrottled = errors.New("cfsim: invocation throttled")

// DefaultWarmIdleTTL is how long an idle worker stays warm, modelled or real.
const DefaultWarmIdleTTL = 10 * time.Minute

// Config parameterizes the service. ColdStart, WarmStart and WarmIdleTTL
// are simulation-only: they pick Invocation.StartDelay.
type Config struct {
	// ColdStart is worker initialization latency from a cold pool
	// (default 800ms — "create hundreds of workers in 1 second").
	ColdStart time.Duration
	// WarmStart is the latency when a warm worker is reused (default 25ms).
	WarmStart time.Duration
	// WarmIdleTTL is how long a finished worker stays warm (default 10m).
	WarmIdleTTL time.Duration
	// MaxConcurrency caps simultaneously running workers (default 1000).
	MaxConcurrency int
	// MemoryGB is the per-worker memory size (default 4 GB).
	MemoryGB float64
	// PricePerGBSecond is the duration price (default the classic
	// $0.0000166667/GB-s).
	PricePerGBSecond float64
	// PricePerInvocation is the per-request fee (default $0.0000002).
	PricePerInvocation float64
	// FailureProb marks invocations to fail mid-run; the caller observes
	// Invocation.WillFail and retries (default 0).
	FailureProb float64
	// Seed drives failure injection deterministically.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ColdStart <= 0 {
		c.ColdStart = 800 * time.Millisecond
	}
	if c.WarmStart <= 0 {
		c.WarmStart = 25 * time.Millisecond
	}
	if c.WarmIdleTTL <= 0 {
		c.WarmIdleTTL = DefaultWarmIdleTTL
	}
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 1000
	}
	if c.MemoryGB <= 0 {
		c.MemoryGB = 4
	}
	if c.PricePerGBSecond <= 0 {
		c.PricePerGBSecond = 0.0000166667
	}
	if c.PricePerInvocation <= 0 {
		c.PricePerInvocation = 0.0000002
	}
	return c
}

// Invocation is one worker execution. The caller runs its task from the
// ready callback and must call Finish (or Fail) exactly once.
type Invocation struct {
	ID         int64
	Started    time.Time     // billed from: the grant, or the end of a simulated StartDelay
	StartDelay time.Duration // modelled start-up: ColdStart, or WarmStart on warm reuse
	WillFail   bool          // failure injection: caller should treat the task as failed

	svc  *Service
	done bool
}

// Usage summarizes the service's lifetime consumption.
type Usage struct {
	Invocations int64
	Throttles   int64
	GBSeconds   float64
	Cost        float64
}

// Service is the simulated cloud-function service.
type Service struct {
	clock vclock.Clock
	cfg   Config

	mu      sync.Mutex
	nextID  int64
	active  int
	warm    []time.Time // expiry times of warm workers
	waiting []func()    // queued invocations awaiting concurrency
	usage   Usage
	rng     *rand.Rand
}

// NewService builds the simulator.
func NewService(clock vclock.Clock, cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{clock: clock, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed + 7))}
}

// Config returns the effective configuration.
func (s *Service) Config() Config { return s.cfg }

// Request asks for one worker; ready runs before Request returns. If the
// concurrency ceiling is reached, the request queues and ready runs when
// capacity frees.
func (s *Service) Request(ready func(inv *Invocation)) {
	s.mu.Lock()
	if s.active >= s.cfg.MaxConcurrency {
		s.waiting = append(s.waiting, func() { s.Request(ready) })
		s.usage.Throttles++
		s.mu.Unlock()
		return
	}
	s.active++
	s.usage.Invocations++
	s.usage.Cost += s.cfg.PricePerInvocation

	// Warm worker available?
	now := s.clock.Now()
	delay := s.cfg.ColdStart
	for len(s.warm) > 0 {
		expiry := s.warm[len(s.warm)-1]
		s.warm = s.warm[:len(s.warm)-1]
		if expiry.After(now) {
			delay = s.cfg.WarmStart
			break
		}
	}
	inv := &Invocation{
		ID:         s.nextID,
		Started:    now,
		StartDelay: delay,
		WillFail:   s.rng.Float64() < s.cfg.FailureProb,
		svc:        s,
	}
	s.nextID++
	s.mu.Unlock()
	ready(inv)
}

// Finish completes an invocation successfully: duration is billed and the
// worker returns to the warm pool.
func (inv *Invocation) Finish() {
	inv.settle(true)
}

// Fail completes an invocation unsuccessfully: duration is still billed
// (the provider charges for failed runs too) and the worker is destroyed.
func (inv *Invocation) Fail() {
	inv.settle(false)
}

func (inv *Invocation) settle(keepWarm bool) {
	s := inv.svc
	s.mu.Lock()
	if inv.done {
		s.mu.Unlock()
		return
	}
	inv.done = true
	now := s.clock.Now()
	dur := now.Sub(inv.Started).Seconds()
	if dur < 0.001 {
		dur = 0.001 // minimum billing granularity: 1ms
	}
	gbs := dur * s.cfg.MemoryGB
	s.usage.GBSeconds += gbs
	s.usage.Cost += gbs * s.cfg.PricePerGBSecond
	s.active--
	if keepWarm {
		s.warm = append(s.warm, now.Add(s.cfg.WarmIdleTTL))
	}
	var next func()
	if len(s.waiting) > 0 {
		next = s.waiting[0]
		s.waiting = s.waiting[1:]
	}
	s.mu.Unlock()
	if next != nil {
		next()
	}
}

// Active reports currently running workers.
func (s *Service) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Usage returns lifetime consumption.
func (s *Service) Usage() Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage
}

// UnitPriceRatio compares the CF slot-second price against a VM
// slot-second price: (GB-s price × worker GB) / (VM $/s ÷ slots per VM).
// The paper cites 9–24×; the defaults here land ≈ 10×.
func UnitPriceRatio(cf Config, vmPricePerSecond float64, vmSlots int) float64 {
	cf = cf.withDefaults()
	cfSlotSecond := cf.PricePerGBSecond * cf.MemoryGB
	vmSlotSecond := vmPricePerSecond / float64(vmSlots)
	return cfSlotSecond / vmSlotSecond
}
