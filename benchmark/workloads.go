package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	pixelsdb "repro"
	"repro/internal/admission"
	"repro/internal/cfsim"
)

const (
	database = "tpch"
	dataSeed = 11 // the dataset never depends on --seed
	clients  = 2  // closed loop, one keep-alive connection each (= nproc on the reference host)
)

type opKind uint8

const (
	opSelect opKind = iota
	opInsert        // INSERT INTO supplier through DB.Execute, then the freshness count
)

// op is one entry of a client's round. Text is what goes over the wire;
// Canon keys the reference rows (re-rendered texts share their canonical
// statement's).
type op struct {
	Kind  opKind
	Name  string // statement family, for reports
	Canon string
	Text  string
}

// workloadSpec is one named traffic mix: how the system is opened, the
// tier each client submits at, and the seeded round each client repeats.
type workloadSpec struct {
	Name  string
	Why   string
	Tiers [clients]string
	// Options fills in everything but DataDir and Tracing.
	Options func(self string) pixelsdb.Options
	// Rounds renders each client's round from the query-literal seed.
	Rounds func(rng *rand.Rand, sf float64) [clients][]op
	// HoldVMs takes every VM lease before traffic so Immediate queries
	// overflow to the CF tier (the paper's spike path).
	HoldVMs bool
}

var workloads = []*workloadSpec{
	{
		Name:  "adhoc_scan",
		Why:   "cold scans at pixels-server defaults: every byte comes from the disk store through decode, so objstore, pixfile, vec and engine scan dominate; dataset 14 MB vs cache 0",
		Tiers: [clients]string{"immediate", "immediate"},
		Options: func(string) pixelsdb.Options {
			return pixelsdb.Options{Admission: &admission.Config{}}
		},
		Rounds: adhocRounds,
	},
	{
		Name:  "report_join",
		Why:   "joins, group-by, top-N and sort over a 256 MiB read cache (dataset fits 18x): the store is silent after warm-up, so exec operators, engine split/merge and intra-query parallelism dominate",
		Tiers: [clients]string{"relaxed", "relaxed"},
		Options: func(string) pixelsdb.Options {
			return pixelsdb.Options{Admission: &admission.Config{}, CacheSize: 256 << 20}
		},
		Rounds: reportRounds,
	},
	{
		Name:  "dashboard_repeat",
		Why:   "skewed repeats of 32 short statements with plan and result caches on and one INSERT per round: server, sql, qcache, admission, core and billing dominate and a stale cache hit fails",
		Tiers: [clients]string{"immediate", "best-of-effort"},
		Options: func(string) pixelsdb.Options {
			return pixelsdb.Options{Admission: &admission.Config{}, CacheSize: 256 << 20,
				PlanCache: true, ResultCacheMB: 64}
		},
		Rounds: dashboardRounds,
	},
	{
		Name:  "cf_spill",
		Why:   "every VM slot held so Immediate queries run as multi-process CF: fragment split, JSON wire, one OS process per task, shuffle through the store and coordinator merge dominate",
		Tiers: [clients]string{"immediate", "immediate"},
		Options: func(self string) pixelsdb.Options {
			return pixelsdb.Options{Admission: &admission.Config{},
				CFExecution: "process", CFWorkerCmd: []string{self, "worker"},
				// The simulator otherwise really sleeps 800 ms / 25 ms per
				// invocation and would mask the real spawn cost.
				CF: cfsim.Config{ColdStart: time.Nanosecond, WarmStart: time.Nanosecond}}
		},
		Rounds:  cfRounds,
		HoldVMs: true,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func sel(name, text string) op { return op{Kind: opSelect, Name: name, Canon: text, Text: text} }

// Literal ranges are kept narrow on purpose: a seed changes which rows
// qualify, not how many, so latency differences between seeds are noise
// and not workload.

func forecastRevenue(rng *rand.Rand) op {
	year := 1993 + rng.Intn(5)
	disc := 2 + rng.Intn(7)
	return sel("forecast-revenue", fmt.Sprintf(`SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem
WHERE l_shipdate >= DATE '%04d-01-01' AND l_shipdate < DATE '%04d-01-01'
	AND l_discount BETWEEN 0.0%d AND 0.0%d AND l_quantity < %d`, year, year+1, disc-1, disc+1, 24+rng.Intn(2)))
}

func pricingSummary(rng *rand.Rand) op {
	return sel("pricing-summary", fmt.Sprintf(`SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,
	SUM(l_extendedprice) AS sum_base_price, SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
	AVG(l_quantity) AS avg_qty, AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem WHERE l_shipdate <= DATE '1998-%02d-%02d'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus`, 8+rng.Intn(2), 1+rng.Intn(28)))
}

var shipModes = []string{"AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"}

// shipmodeScan selects 1/7 x 2/50 = 0.57 % of lineitem and returns string
// payload.
func shipmodeScan(rng *rand.Rand) op {
	return sel("shipmode-scan", fmt.Sprintf(`SELECT l_orderkey, l_shipmode, l_returnflag, l_linestatus, l_quantity, l_extendedprice
FROM lineitem WHERE l_shipmode = '%s' AND l_quantity < 3`, shipModes[rng.Intn(len(shipModes))]))
}

func countLineitem(*rand.Rand) op { return sel("count-star", `SELECT COUNT(*) FROM lineitem`) }

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

func shippedRevenue(rng *rand.Rand) op {
	return sel("shipped-revenue", fmt.Sprintf(`SELECT l.l_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, o.o_orderdate
FROM customer c, orders o, lineitem l
WHERE c.c_mktsegment = '%s' AND c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
	AND o.o_orderdate < DATE '1995-03-%02d'
GROUP BY l.l_orderkey, o.o_orderdate ORDER BY revenue DESC LIMIT 10`, segments[rng.Intn(len(segments))], 1+rng.Intn(28)))
}

func topCustomers(rng *rand.Rand) op {
	return sel("top-customers", fmt.Sprintf(`SELECT c.c_name, SUM(o.o_totalprice) AS total
FROM customer c, orders o WHERE c.c_custkey = o.o_custkey
GROUP BY c.c_name ORDER BY total DESC LIMIT %d`, 5+rng.Intn(15)))
}

// segmentJoin keeps every order (the cheapest one costs more than 500),
// so the literal only makes the statement distinct.
func segmentJoin(rng *rand.Rand) op {
	return sel("segment-join", fmt.Sprintf(`SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) FROM orders, customer
WHERE o_custkey = c_custkey AND o_totalprice > %d GROUP BY c_mktsegment ORDER BY c_mktsegment`, 100+rng.Intn(400)))
}

func lineitemTopN(rng *rand.Rand) op {
	return sel("lineitem-topn", fmt.Sprintf(`SELECT l_orderkey, l_extendedprice FROM lineitem
ORDER BY l_extendedprice DESC, l_orderkey LIMIT %d`, 10+rng.Intn(3)))
}

func partialAgg(rng *rand.Rand) op {
	return sel("partial-agg", fmt.Sprintf(`SELECT l_returnflag, COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem
WHERE l_shipdate <= DATE '1998-%02d-%02d' GROUP BY l_returnflag ORDER BY l_returnflag`, 8+rng.Intn(2), 1+rng.Intn(28)))
}

func pointLookup(rng *rand.Rand, sf float64) op {
	orders := int(sf * 150000)
	if orders < 50 {
		orders = 50
	}
	return sel("point-lookup", fmt.Sprintf(`SELECT o_orderkey, o_orderstatus, o_totalprice, o_orderdate
FROM orders WHERE o_orderkey = %d`, 1+rng.Intn(orders)))
}

// Every customer's balance is above -999, so the literal only makes the
// statement distinct.
func segmentCount(rng *rand.Rand) op {
	return sel("segment-count", fmt.Sprintf(`SELECT c_mktsegment, COUNT(*) AS cnt, AVG(c_acctbal) AS avg_bal
FROM customer WHERE c_acctbal > -%d GROUP BY c_mktsegment ORDER BY cnt DESC`, 1000+rng.Intn(1000)))
}

func smallTopN(rng *rand.Rand) op {
	return sel("small-topn", fmt.Sprintf(`SELECT c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC, c_name LIMIT %d`, 3+rng.Intn(20)))
}

// mixedRounds renders sets literal sets of each generator; both clients
// run the same statements (the order is drawn per round, in drive).
func mixedRounds(rng *rand.Rand, sets int, gens ...func(*rand.Rand) op) [clients][]op {
	var stmts []op
	for _, g := range gens {
		for i := 0; i < sets; i++ {
			stmts = append(stmts, g(rng))
		}
	}
	var out [clients][]op
	for c := range out {
		out[c] = stmts
	}
	return out
}

func adhocRounds(rng *rand.Rand, _ float64) [clients][]op {
	return mixedRounds(rng, 3, forecastRevenue, pricingSummary, shipmodeScan, countLineitem)
}

func reportRounds(rng *rand.Rand, _ float64) [clients][]op {
	return mixedRounds(rng, 3, shippedRevenue, topCustomers, segmentJoin, lineitemTopN)
}

func cfRounds(rng *rand.Rand, sf float64) [clients][]op {
	return mixedRounds(rng, 2, partialAgg, segmentJoin, lineitemTopN, forecastRevenue,
		func(r *rand.Rand) op { return pointLookup(r, sf) })
}

const (
	dashboardPool  = 32
	dashboardRound = 128
)

// dashboardRounds draws each client's 128 ops, Zipf-skewed, from a pool
// of 32 short statements and re-renders every draw so that only the
// normaliser can see the repeats. Client 0 additionally writes once per
// round.
func dashboardRounds(rng *rand.Rand, sf float64) [clients][]op {
	pool := make([]op, 0, dashboardPool)
	for len(pool) < 20 {
		pool = append(pool, pointLookup(rng, sf))
	}
	for len(pool) < 24 {
		pool = append(pool, segmentCount(rng))
	}
	for len(pool) < dashboardPool {
		pool = append(pool, smallTopN(rng))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	zipf := rand.NewZipf(rng, 1.2, 1, dashboardPool-1)
	var out [clients][]op
	for c := range out {
		round := make([]op, 0, dashboardRound+1)
		for i := 0; i < dashboardRound; i++ {
			o := pool[zipf.Uint64()]
			o.Text = rerender(o.Canon, rng.Intn(4))
			round = append(round, o)
		}
		if c == 0 {
			round = append(round, op{Kind: opInsert, Name: "insert+count"})
		}
		out[c] = round
	}
	return out
}

// rerender changes a statement's case, whitespace or comments without
// changing its meaning.
func rerender(text string, variant int) string {
	switch variant {
	case 1:
		r := strings.NewReplacer("SELECT", "select", "FROM", "from", "WHERE", "where",
			"GROUP BY", "group by", "ORDER BY", "order by", "LIMIT", "limit")
		return r.Replace(text)
	case 2:
		return "  " + strings.ReplaceAll(text, " ", "  ") + " ;"
	case 3:
		return "/* dashboard tile */ " + strings.ReplaceAll(text, "\n", " ") + " -- refresh"
	default:
		return text
	}
}

const countSupplier = `SELECT COUNT(*) FROM supplier`

func insertSupplier(n int64) string {
	return fmt.Sprintf(`INSERT INTO supplier VALUES (%d, 'Supplier#bench%06d', %d)`, 1000000+n, n, n%25)
}
