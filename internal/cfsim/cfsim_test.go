package cfsim

import (
	"testing"
	"time"

	"repro/internal/vclock"
)

var t0 = time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)

func TestColdStartLatency(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{ColdStart: 800 * time.Millisecond})
	var inv *Invocation
	s.Request(func(i *Invocation) { inv = i })
	if inv == nil {
		t.Fatal("ready did not run at request time")
	}
	if inv.StartDelay != 800*time.Millisecond {
		t.Fatalf("cold start delay %v", inv.StartDelay)
	}
	if !inv.Started.Equal(t0) {
		t.Fatalf("started %v, want the request time", inv.Started)
	}
}

func TestWarmReuse(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{ColdStart: time.Second, WarmStart: 20 * time.Millisecond, WarmIdleTTL: time.Minute})
	var first *Invocation
	s.Request(func(inv *Invocation) { first = inv })
	if first.StartDelay != time.Second {
		t.Fatalf("first invocation's delay %v, want the cold start", first.StartDelay)
	}
	clk.Advance(time.Second)
	first.Finish()
	clk.Advance(30 * time.Second) // within WarmIdleTTL
	var second *Invocation
	s.Request(func(inv *Invocation) { second = inv })
	if second.StartDelay != 20*time.Millisecond {
		t.Fatalf("reuse within the TTL: delay %v, want the warm start", second.StartDelay)
	}
	// The warm worker is taken: a concurrent request starts cold.
	var third *Invocation
	s.Request(func(inv *Invocation) { third = inv })
	if third.StartDelay != time.Second {
		t.Fatalf("second concurrent request: delay %v, want the cold start", third.StartDelay)
	}
}

func TestWarmExpiry(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{WarmIdleTTL: time.Minute})
	cold := s.Config().ColdStart
	var inv *Invocation
	s.Request(func(i *Invocation) { inv = i })
	clk.Advance(time.Second)
	inv.Finish()
	clk.Advance(2 * time.Minute)
	var again *Invocation
	s.Request(func(i *Invocation) { again = i })
	if again.StartDelay != cold {
		t.Fatalf("expired warm worker was reused: delay %v, want %v", again.StartDelay, cold)
	}
	// A failed worker does not go back warm either.
	again.Fail()
	var afterFail *Invocation
	s.Request(func(i *Invocation) { afterFail = i })
	if afterFail.StartDelay != cold {
		t.Fatalf("failed worker was reused: delay %v, want %v", afterFail.StartDelay, cold)
	}
}

func TestHundredWorkersInOneSecond(t *testing.T) {
	// The paper's elasticity claim: CF can create hundreds of workers in
	// ~1 second, while the VM cluster needs 1-2 minutes.
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{ColdStart: 800 * time.Millisecond})
	ready := 0
	for i := 0; i < 200; i++ {
		s.Request(func(inv *Invocation) {
			if inv.StartDelay <= time.Second {
				ready++
			}
		})
	}
	if ready != 200 {
		t.Fatalf("%d workers ready within 1s, want 200", ready)
	}
	if s.Active() != 200 {
		t.Fatalf("active = %d", s.Active())
	}
}

func TestConcurrencyCeilingQueues(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{MaxConcurrency: 2, ColdStart: 10 * time.Millisecond})
	var invs []*Invocation
	started := 0
	for i := 0; i < 3; i++ {
		s.Request(func(inv *Invocation) {
			invs = append(invs, inv)
			started++
		})
	}
	clk.Advance(time.Second)
	if started != 2 {
		t.Fatalf("started %d, want 2 (third throttled)", started)
	}
	if s.Usage().Throttles != 1 {
		t.Fatalf("throttles = %d", s.Usage().Throttles)
	}
	invs[0].Finish()
	clk.Advance(time.Second)
	if started != 3 {
		t.Fatalf("queued invocation did not start after capacity freed")
	}
}

func TestBilling(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	cfg := Config{MemoryGB: 2, PricePerGBSecond: 0.00001, PricePerInvocation: 0.0000002, ColdStart: time.Second}
	s := NewService(clk, cfg)
	var inv *Invocation
	s.Request(func(i *Invocation) { inv = i })
	clk.Advance(10 * time.Second) // billed from the request: 10s
	inv.Finish()
	u := s.Usage()
	wantGBs := 10.0 * 2
	if u.GBSeconds < wantGBs-0.1 || u.GBSeconds > wantGBs+0.1 {
		t.Fatalf("GB-seconds = %f, want ~%f", u.GBSeconds, wantGBs)
	}
	wantCost := wantGBs*0.00001 + 0.0000002
	if u.Cost < wantCost*0.99 || u.Cost > wantCost*1.01 {
		t.Fatalf("cost = %f, want ~%f", u.Cost, wantCost)
	}
}

func TestFailedRunStillBilled(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{MemoryGB: 1, PricePerGBSecond: 0.00001})
	var inv *Invocation
	s.Request(func(i *Invocation) { inv = i })
	clk.Advance(5 * time.Second)
	inv.Fail()
	if got := s.Usage().GBSeconds; got < 4.9 || got > 5.1 {
		t.Fatalf("failed run billed %f GB-s, want ~5 from the request", got)
	}
	if s.Active() != 0 {
		t.Fatalf("failed worker still active")
	}
}

func TestDoubleFinishIsNoop(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{})
	var inv *Invocation
	s.Request(func(i *Invocation) { inv = i })
	clk.Advance(time.Second)
	inv.Finish()
	before := s.Usage()
	inv.Finish()
	if s.Usage() != before {
		t.Fatalf("double finish changed usage")
	}
}

func TestFailureInjectionMarksInvocations(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	s := NewService(clk, Config{FailureProb: 1.0, Seed: 1})
	var inv *Invocation
	s.Request(func(i *Invocation) { inv = i })
	clk.Advance(time.Second)
	if !inv.WillFail {
		t.Fatalf("WillFail not set with FailureProb=1")
	}
	s2 := NewService(clk, Config{FailureProb: 0, Seed: 1})
	var inv2 *Invocation
	s2.Request(func(i *Invocation) { inv2 = i })
	clk.Advance(time.Second)
	if inv2.WillFail {
		t.Fatalf("WillFail set with FailureProb=0")
	}
}

func TestUnitPriceRatioInPaperBand(t *testing.T) {
	// Defaults must land inside the paper's 9-24x CF:VM unit price band.
	ratio := UnitPriceRatio(Config{}, 0.096/3600, 4)
	if ratio < 9 || ratio > 24 {
		t.Fatalf("unit price ratio %f outside the paper's 9-24x band", ratio)
	}
}
