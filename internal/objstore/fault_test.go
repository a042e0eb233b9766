package objstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func seedStore(t *testing.T) Store {
	t.Helper()
	m := NewMemory()
	for _, k := range []string{"db/t/a", "db/t/b", "_intermediate/q1/part-0"} {
		if err := m.Put(k, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestFaultStoreFailFirstDeterministic(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{FailFirst: 3})
	for i := 0; i < 3; i++ {
		if _, err := fs.Get("db/t/a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: err = %v, want ErrInjected", i, err)
		}
	}
	// The budget is spent: everything afterwards is clean.
	for i := 0; i < 5; i++ {
		if _, err := fs.Get("db/t/a"); err != nil {
			t.Fatalf("post-budget op %d failed: %v", i, err)
		}
	}
	st := fs.Stats()
	if st.InjectedErrors != 3 || st.Ops != 8 {
		t.Fatalf("stats = %+v, want 3 injected / 8 ops", st)
	}
}

func TestFaultStoreSeededRatesReplay(t *testing.T) {
	run := func() (FaultStats, []bool) {
		fs := NewFaultStore(seedStore(t), FaultConfig{Seed: 42, ErrorRate: 0.3})
		var outcomes []bool
		for i := 0; i < 50; i++ {
			_, err := fs.Get("db/t/a")
			outcomes = append(outcomes, err == nil)
		}
		return fs.Stats(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("op %d outcome diverged", i)
		}
	}
	if s1.InjectedErrors == 0 || s1.InjectedErrors == 50 {
		t.Fatalf("rate 0.3 over 50 ops injected %d errors", s1.InjectedErrors)
	}
}

func TestFaultStoreTornReadCorruptsSilently(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{TornFirst: 1})
	torn, err := GetRange(fs, "db/t/a", 0, 16)
	if err != nil {
		t.Fatalf("torn read must not error at the store API: %v", err)
	}
	clean, err := GetRange(fs, "db/t/a", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(torn, clean) {
		t.Fatal("torn read returned clean bytes")
	}
	if len(torn) != len(clean) {
		t.Fatalf("torn read changed length: %d vs %d", len(torn), len(clean))
	}
	// The head half is intact, the tail is flipped — a torn tail, not a
	// truncation.
	if !bytes.Equal(torn[:8], clean[:8]) || bytes.Equal(torn[8:], clean[8:]) {
		t.Fatalf("torn shape wrong: %q vs %q", torn, clean)
	}
	if st := fs.Stats(); st.TornReads != 1 {
		t.Fatalf("TornReads = %d, want 1", st.TornReads)
	}
}

func TestFaultStoreScoping(t *testing.T) {
	// Only GetRange on intermediates is eligible; everything else is clean.
	fs := NewFaultStore(seedStore(t), FaultConfig{
		FailFirst: 100,
		Ops:       []string{"GetRange"},
		Prefix:    "_intermediate/",
	})
	if _, err := fs.Get("_intermediate/q1/part-0"); err != nil {
		t.Fatalf("Get is out of scope, got %v", err)
	}
	if _, err := GetRange(fs, "db/t/a", 0, 4); err != nil {
		t.Fatalf("base-table key is out of scope, got %v", err)
	}
	if _, err := GetRange(fs, "_intermediate/q1/part-0", 0, 4); !errors.Is(err, ErrInjected) {
		t.Fatalf("in-scope op survived: %v", err)
	}
}

func TestFaultStoreLatencyInjection(t *testing.T) {
	fs := NewFaultStore(seedStore(t), FaultConfig{Seed: 1, Latency: 2 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := fs.Get("db/t/a"); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("20 ops with ~1ms mean latency took %v", elapsed)
	}
}

func TestFaultConfigRoundTripsAsJSON(t *testing.T) {
	cfg := FaultConfig{Seed: 7, FailFirst: 2, ErrorRate: 0.25, TornRate: 0.5,
		TornFirst: 1, Latency: 3 * time.Millisecond, Ops: []string{"Get"}, Prefix: "x/"}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back FaultConfig
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != cfg.Seed || back.FailFirst != cfg.FailFirst ||
		back.ErrorRate != cfg.ErrorRate || back.TornRate != cfg.TornRate ||
		back.TornFirst != cfg.TornFirst || back.Latency != cfg.Latency ||
		back.Prefix != cfg.Prefix || len(back.Ops) != 1 || back.Ops[0] != "Get" {
		t.Fatalf("round trip lost fields: %+v vs %+v", back, cfg)
	}
}

func TestDeletePrefix(t *testing.T) {
	m := NewMemory()
	for _, k := range []string{
		"_intermediate/q1/part-00000.a0.pxl",
		"_intermediate/q1/part-00001.a0.pxl",
		"_intermediate/q1/part-00001.a1.pxl", // retried attempt's orphan
		"_intermediate/q2/part-00000.a0.pxl", // other query — untouched
		"db/t/data-000000.pxl",
	} {
		if err := m.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	n, err := DeletePrefix(m, IntermediatePrefix("q1"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("deleted %d, want 3", n)
	}
	left, err := m.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 2 {
		t.Fatalf("remaining objects: %v", left)
	}
}
