package workload

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/billing"
)

// ArrivalProcess yields successive inter-arrival gaps; Next returns the
// gap to the next arrival given the current offset from the start of the
// run (so time-varying processes can modulate their rate).
type ArrivalProcess interface {
	Next(at time.Duration) time.Duration
}

// Burst is a base Poisson process with periodic rate spikes — the workload
// that exposes the VM scale-out lag (E5).
type Burst struct {
	BaseRate  float64       // arrivals/second off-peak
	SpikeRate float64       // arrivals/second during a spike
	Period    time.Duration // spike every Period
	SpikeLen  time.Duration // spike duration
	rng       *rand.Rand
}

// NewBurst builds a bursty process.
func NewBurst(base, spike float64, period, spikeLen time.Duration, seed int64) *Burst {
	return &Burst{BaseRate: base, SpikeRate: spike, Period: period, SpikeLen: spikeLen,
		rng: rand.New(rand.NewSource(seed + 4000))}
}

// InSpike reports whether offset t falls inside a spike window.
func (b *Burst) InSpike(t time.Duration) bool {
	if b.Period <= 0 {
		return false
	}
	phase := t % b.Period
	return phase < b.SpikeLen
}

// Next implements ArrivalProcess.
func (b *Burst) Next(at time.Duration) time.Duration {
	rate := b.BaseRate
	if b.InSpike(at) {
		rate = b.SpikeRate
	}
	if rate <= 0 {
		return time.Hour
	}
	gap := b.rng.ExpFloat64() / rate
	return time.Duration(gap * float64(time.Second))
}

// Diurnal modulates a Poisson process sinusoidally over a day-like cycle:
// rate(t) = Mean * (1 + Amplitude*sin(2πt/Cycle)).
type Diurnal struct {
	Mean      float64
	Amplitude float64 // 0..1
	Cycle     time.Duration
	rng       *rand.Rand
}

// NewDiurnal builds a diurnal process.
func NewDiurnal(mean, amplitude float64, cycle time.Duration, seed int64) *Diurnal {
	if amplitude < 0 {
		amplitude = 0
	}
	if amplitude > 1 {
		amplitude = 1
	}
	return &Diurnal{Mean: mean, Amplitude: amplitude, Cycle: cycle,
		rng: rand.New(rand.NewSource(seed + 5000))}
}

// RateAt returns the instantaneous rate.
func (d *Diurnal) RateAt(t time.Duration) float64 {
	if d.Cycle <= 0 {
		return d.Mean
	}
	phase := 2 * math.Pi * float64(t%d.Cycle) / float64(d.Cycle)
	return d.Mean * (1 + d.Amplitude*math.Sin(phase))
}

// Next implements ArrivalProcess (thinning-free approximation: sample at
// the current instantaneous rate, which is accurate for gaps much shorter
// than the cycle).
func (d *Diurnal) Next(at time.Duration) time.Duration {
	rate := d.RateAt(at)
	if rate <= 0.001 {
		rate = 0.001
	}
	gap := d.rng.ExpFloat64() / rate
	return time.Duration(gap * float64(time.Second))
}

// LevelMix samples service levels with weights.
type LevelMix struct {
	Weights map[billing.Level]float64
	rng     *rand.Rand
}

// NewLevelMix builds a sampler. A nil weights map defaults to the paper's
// intuition: a minority of queries are truly interactive.
func NewLevelMix(weights map[billing.Level]float64, seed int64) *LevelMix {
	if weights == nil {
		weights = map[billing.Level]float64{
			billing.Immediate:  0.3,
			billing.Relaxed:    0.5,
			billing.BestEffort: 0.2,
		}
	}
	return &LevelMix{Weights: weights, rng: rand.New(rand.NewSource(seed + 6000))}
}

// Pick samples one level.
func (m *LevelMix) Pick() billing.Level {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := m.rng.Float64() * total
	for _, lev := range billing.Levels() {
		w := m.Weights[lev]
		if x < w {
			return lev
		}
		x -= w
	}
	return billing.Relaxed
}

// UniformLevel always returns one level (for per-level experiments).
type UniformLevel struct {
	Level billing.Level
}

// Pick returns the fixed level.
func (u UniformLevel) Pick() billing.Level { return u.Level }
