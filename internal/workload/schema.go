// Package workload generates the evaluation workload: a deterministic
// TPC-H-derived dataset, parameterized analytic query templates, arrival
// processes (bursty, diurnal) and service-level mixes. Every
// generator is seeded, so experiments reproduce bit-for-bit.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/engine"
	"repro/internal/pixfile"
)

// DDL statements for the TPC-H-lite schema, in dependency order.
var DDL = []string{
	`CREATE TABLE region (r_regionkey BIGINT NOT NULL, r_name VARCHAR NOT NULL)`,
	`CREATE TABLE nation (n_nationkey BIGINT NOT NULL, n_name VARCHAR NOT NULL, n_regionkey BIGINT NOT NULL)`,
	`CREATE TABLE customer (c_custkey BIGINT NOT NULL, c_name VARCHAR NOT NULL, c_nationkey BIGINT NOT NULL,
		c_mktsegment VARCHAR NOT NULL, c_acctbal DOUBLE NOT NULL)`,
	`CREATE TABLE supplier (s_suppkey BIGINT NOT NULL, s_name VARCHAR NOT NULL, s_nationkey BIGINT NOT NULL)`,
	`CREATE TABLE part (p_partkey BIGINT NOT NULL, p_name VARCHAR NOT NULL, p_brand VARCHAR NOT NULL,
		p_retailprice DOUBLE NOT NULL)`,
	`CREATE TABLE orders (o_orderkey BIGINT NOT NULL, o_custkey BIGINT NOT NULL, o_orderstatus VARCHAR NOT NULL,
		o_totalprice DOUBLE NOT NULL, o_orderdate DATE NOT NULL, o_orderpriority VARCHAR NOT NULL)`,
	`CREATE TABLE lineitem (l_orderkey BIGINT NOT NULL, l_partkey BIGINT NOT NULL, l_suppkey BIGINT NOT NULL,
		l_quantity DOUBLE NOT NULL, l_extendedprice DOUBLE NOT NULL, l_discount DOUBLE NOT NULL,
		l_tax DOUBLE NOT NULL, l_returnflag VARCHAR NOT NULL, l_linestatus VARCHAR NOT NULL,
		l_shipdate DATE NOT NULL, l_shipmode VARCHAR NOT NULL)`,
}

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}
	brands     = []string{"Brand#11", "Brand#12", "Brand#21", "Brand#22", "Brand#31"}
	partNouns  = []string{"steel", "copper", "brass", "tin", "nickel"}
	partAdjs   = []string{"small", "large", "polished", "anodized", "burnished"}
)

// Sizes describes row counts at a scale factor. SF 1.0 would be full
// TPC-H; the simulation typically runs SF 0.01-0.1.
type Sizes struct {
	Customers int
	Orders    int
	Suppliers int
	Parts     int
}

// SizesAt computes table sizes for a scale factor.
func SizesAt(sf float64) Sizes {
	atLeast := func(v float64, min int) int {
		n := int(v)
		if n < min {
			return min
		}
		return n
	}
	return Sizes{
		Customers: atLeast(sf*15000, 10),
		Orders:    atLeast(sf*150000, 50),
		Suppliers: atLeast(sf*1000, 5),
		Parts:     atLeast(sf*20000, 10),
	}
}

// LoadOptions configure dataset generation.
type LoadOptions struct {
	SF           float64 // scale factor (default 0.01)
	Seed         int64
	RowGroupSize int // pixfile row group size (default 4096)
	RowsPerFile  int // rows per lineitem/orders file (default 32768) — multiple files enable CF partitioning
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.SF <= 0 {
		o.SF = 0.01
	}
	if o.RowGroupSize <= 0 {
		o.RowGroupSize = 4096
	}
	if o.RowsPerFile <= 0 {
		o.RowsPerFile = 32768
	}
	return o
}

// dateRange of order dates: 1992-01-01 .. 1998-08-02 (as in TPC-H).
var (
	minOrderDate, _ = col.ParseDate("1992-01-01")
	maxOrderDate, _ = col.ParseDate("1998-08-02")
)

// Load creates the database, tables and generated data inside the engine.
func Load(e *engine.Engine, db string, opts LoadOptions) error {
	opts = opts.withDefaults()
	sz := SizesAt(opts.SF)
	rng := rand.New(rand.NewSource(opts.Seed + 1000))

	if !e.Catalog().HasDatabase(db) {
		if err := e.Catalog().CreateDatabase(db); err != nil {
			return err
		}
	}
	for _, ddl := range DDL {
		if _, err := e.Execute(noCtx, db, ddl); err != nil {
			return fmt.Errorf("workload: %s: %w", ddl[:30], err)
		}
	}
	wopts := pixfile.WriterOptions{RowGroupSize: opts.RowGroupSize}

	// region
	rb := newBatchBuilder(e, db, "region")
	for i, name := range regionNames {
		rb.row(col.Int(int64(i)), col.Str(name))
	}
	if err := rb.flush(wopts); err != nil {
		return err
	}

	// nation
	nb := newBatchBuilder(e, db, "nation")
	for i, name := range nationNames {
		nb.row(col.Int(int64(i)), col.Str(name), col.Int(int64(i%len(regionNames))))
	}
	if err := nb.flush(wopts); err != nil {
		return err
	}

	// customer
	cb := newBatchBuilder(e, db, "customer")
	for i := 0; i < sz.Customers; i++ {
		cb.row(
			col.Int(int64(i+1)),
			col.Str(fmt.Sprintf("Customer#%09d", i+1)),
			col.Int(int64(rng.Intn(len(nationNames)))),
			col.Str(segments[rng.Intn(len(segments))]),
			col.Float(float64(rng.Intn(1000000))/100-999),
		)
		if cb.n >= opts.RowsPerFile {
			if err := cb.flush(wopts); err != nil {
				return err
			}
		}
	}
	if err := cb.flush(wopts); err != nil {
		return err
	}

	// supplier
	sb := newBatchBuilder(e, db, "supplier")
	for i := 0; i < sz.Suppliers; i++ {
		sb.row(
			col.Int(int64(i+1)),
			col.Str(fmt.Sprintf("Supplier#%09d", i+1)),
			col.Int(int64(rng.Intn(len(nationNames)))),
		)
	}
	if err := sb.flush(wopts); err != nil {
		return err
	}

	// part
	pb := newBatchBuilder(e, db, "part")
	for i := 0; i < sz.Parts; i++ {
		pb.row(
			col.Int(int64(i+1)),
			col.Str(partAdjs[rng.Intn(len(partAdjs))]+" "+partNouns[rng.Intn(len(partNouns))]),
			col.Str(brands[rng.Intn(len(brands))]),
			col.Float(900+float64(i%201)),
		)
		if pb.n >= opts.RowsPerFile {
			if err := pb.flush(wopts); err != nil {
				return err
			}
		}
	}
	if err := pb.flush(wopts); err != nil {
		return err
	}

	// orders + lineitem (1-7 lines per order)
	ob := newBatchBuilder(e, db, "orders")
	lb := newBatchBuilder(e, db, "lineitem")
	dateSpan := maxOrderDate - minOrderDate
	for i := 0; i < sz.Orders; i++ {
		okey := int64(i + 1)
		odate := minOrderDate + int64(rng.Intn(int(dateSpan)))
		lines := 1 + rng.Intn(7)
		total := 0.0
		for ln := 0; ln < lines; ln++ {
			qty := float64(1 + rng.Intn(50))
			price := qty * (900 + float64(rng.Intn(201)))
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			total += price * (1 - disc) * (1 + tax)
			flag := "N"
			status := "O"
			if r := rng.Intn(100); r < 25 {
				flag, status = "R", "F"
			} else if r < 50 {
				flag, status = "A", "F"
			}
			ship := odate + int64(1+rng.Intn(120))
			lb.row(
				col.Int(okey),
				col.Int(int64(1+rng.Intn(sz.Parts))),
				col.Int(int64(1+rng.Intn(sz.Suppliers))),
				col.Float(qty),
				col.Float(price),
				col.Float(disc),
				col.Float(tax),
				col.Str(flag),
				col.Str(status),
				col.Date(ship),
				col.Str(shipModes[rng.Intn(len(shipModes))]),
			)
		}
		status := "O"
		if rng.Intn(2) == 0 {
			status = "F"
		}
		ob.row(
			col.Int(okey),
			col.Int(int64(1+rng.Intn(sz.Customers))),
			col.Str(status),
			col.Float(total),
			col.Date(odate),
			col.Str(priorities[rng.Intn(len(priorities))]),
		)
		if ob.n >= opts.RowsPerFile {
			if err := ob.flush(wopts); err != nil {
				return err
			}
		}
		if lb.n >= opts.RowsPerFile {
			if err := lb.flush(wopts); err != nil {
				return err
			}
		}
	}
	if err := ob.flush(wopts); err != nil {
		return err
	}
	return lb.flush(wopts)
}

// batchBuilder accumulates rows and bulk-loads them per table.
type batchBuilder struct {
	e     *engine.Engine
	db    string
	table string
	meta  *catalog.Table
	batch *col.Batch
	n     int
}

func newBatchBuilder(e *engine.Engine, db, table string) *batchBuilder {
	meta, err := e.Catalog().GetTable(db, table)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return &batchBuilder{e: e, db: db, table: table, meta: meta, batch: col.EmptyBatch(meta.Schema())}
}

func (b *batchBuilder) row(vals ...col.Value) {
	for c, v := range vals {
		vec := b.batch.Vecs[c]
		switch vec.Type {
		case col.BOOL:
			vec.Bools = append(vec.Bools, v.B)
		case col.INT64, col.DATE, col.TIMESTAMP:
			vec.Ints = append(vec.Ints, v.I)
		case col.FLOAT64:
			vec.Floats = append(vec.Floats, v.F)
		case col.STRING:
			vec.Strs = append(vec.Strs, v.S)
		}
		vec.N++
	}
	b.batch.N++
	b.n++
}

func (b *batchBuilder) flush(opts pixfile.WriterOptions) error {
	if b.n == 0 {
		return nil
	}
	if err := b.e.LoadBatch(b.db, b.table, b.batch, opts); err != nil {
		return err
	}
	b.batch = col.EmptyBatch(b.meta.Schema())
	b.n = 0
	return nil
}
