package workload

import (
	"context"
	"testing"
	"time"

	"repro/internal/billing"
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/objstore"
)

func loadedEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(catalog.New(), objstore.NewMemory())
	if err := Load(e, "tpch", LoadOptions{SF: 0.002, Seed: 1, RowsPerFile: 200}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return e
}

func TestLoadCreatesAllTables(t *testing.T) {
	e := loadedEngine(t)
	tables, err := e.Catalog().ListTables("tpch")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"customer", "lineitem", "nation", "orders", "part", "region", "supplier"}
	if len(tables) != len(want) {
		t.Fatalf("tables = %v", tables)
	}
	for i := range want {
		if tables[i] != want[i] {
			t.Fatalf("tables = %v, want %v", tables, want)
		}
	}
	// Row counts match the scale.
	sz := SizesAt(0.002)
	ct, _ := e.Catalog().GetTable("tpch", "customer")
	if ct.RowCount() != int64(sz.Customers) {
		t.Fatalf("customers = %d, want %d", ct.RowCount(), sz.Customers)
	}
	ot, _ := e.Catalog().GetTable("tpch", "orders")
	if ot.RowCount() != int64(sz.Orders) {
		t.Fatalf("orders = %d, want %d", ot.RowCount(), sz.Orders)
	}
	lt, _ := e.Catalog().GetTable("tpch", "lineitem")
	if lt.RowCount() < ot.RowCount() {
		t.Fatalf("lineitem (%d) should exceed orders (%d)", lt.RowCount(), ot.RowCount())
	}
	// Multiple files for CF partitioning.
	if len(ot.Files) < 2 {
		t.Fatalf("orders should span multiple files, got %d", len(ot.Files))
	}
}

func TestLoadIsDeterministic(t *testing.T) {
	e1 := loadedEngine(t)
	e2 := loadedEngine(t)
	ctx := context.Background()
	q := "SELECT SUM(o_totalprice), COUNT(*) FROM orders"
	r1, err := e1.Execute(ctx, "tpch", q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Execute(ctx, "tpch", q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].F != r2.Rows[0][0].F {
		t.Fatalf("not deterministic: %v vs %v", r1.Rows[0][0], r2.Rows[0][0])
	}
}

func TestAllTemplatesExecute(t *testing.T) {
	e := loadedEngine(t)
	g := NewQueryGen(7, 0.002)
	ctx := context.Background()
	for _, kind := range AllKinds() {
		q := g.Generate(kind)
		r, err := e.Execute(ctx, "tpch", q)
		if err != nil {
			t.Fatalf("%s: %v\nSQL: %s", kind, err, q)
		}
		if kind == KindPricingSummary && len(r.Rows) == 0 {
			t.Fatalf("%s returned no rows", kind)
		}
	}
}

func TestQueryGenDeterministic(t *testing.T) {
	g1 := NewQueryGen(5, 0.01)
	g2 := NewQueryGen(5, 0.01)
	for i := 0; i < 20; i++ {
		k1, k2 := g1.Pick(DefaultMix()), g2.Pick(DefaultMix())
		if k1 != k2 {
			t.Fatalf("pick %d differs", i)
		}
		if g1.Generate(k1) != g2.Generate(k2) {
			t.Fatalf("generate %d differs", i)
		}
	}
}

func TestBurstSpikeWindows(t *testing.T) {
	b := NewBurst(1, 50, 10*time.Minute, time.Minute, 2)
	if !b.InSpike(30 * time.Second) {
		t.Fatalf("0:30 should be inside the spike")
	}
	if b.InSpike(5 * time.Minute) {
		t.Fatalf("5:00 should be off-peak")
	}
	if !b.InSpike(10*time.Minute + 30*time.Second) {
		t.Fatalf("10:30 should be inside the second spike")
	}
	// Spike gaps must be much shorter on average.
	spikeGap := b.Next(10 * time.Second)
	_ = spikeGap // distributional check below
	nSpike, nBase := 0.0, 0.0
	for i := 0; i < 500; i++ {
		nSpike += b.Next(time.Second).Seconds()
		nBase += b.Next(5 * time.Minute).Seconds()
	}
	if nSpike*10 > nBase {
		t.Fatalf("spike gaps (%f) not much shorter than base gaps (%f)", nSpike/500, nBase/500)
	}
}

func TestDiurnalRateVaries(t *testing.T) {
	d := NewDiurnal(10, 0.8, 24*time.Hour, 3)
	peak := d.RateAt(6 * time.Hour)    // sin peak at cycle/4
	trough := d.RateAt(18 * time.Hour) // sin trough at 3cycle/4
	if peak <= 10 || trough >= 10 {
		t.Fatalf("peak %f / trough %f around mean 10", peak, trough)
	}
	if peak/trough < 3 {
		t.Fatalf("amplitude too small: %f vs %f", peak, trough)
	}
}

func TestLevelMix(t *testing.T) {
	m := NewLevelMix(nil, 4)
	counts := map[billing.Level]int{}
	for i := 0; i < 3000; i++ {
		counts[m.Pick()]++
	}
	if counts[billing.Relaxed] < counts[billing.Immediate] {
		t.Fatalf("mix skewed: %v", counts)
	}
	if counts[billing.BestEffort] == 0 || counts[billing.Immediate] == 0 {
		t.Fatalf("level starved: %v", counts)
	}
	u := UniformLevel{Level: billing.Immediate}
	for i := 0; i < 10; i++ {
		if u.Pick() != billing.Immediate {
			t.Fatalf("uniform mix strayed")
		}
	}
}
