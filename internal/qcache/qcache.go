// Package qcache is the planner every submission goes through — Plan turns
// (database, SQL text, row limit) into (bound plan, result key) for the
// HTTP and the embedded front door alike — and the repeat-traffic fast
// path behind it: a plan cache keyed on normalized SQL and a byte-budgeted
// result cache keyed on the plan-cache key + referenced-table generations.
// With both levels off (the default) Plan is lex + parse + bind + optimize
// and nothing is retained.
//
// Level 1 (plan cache) removes parse+bind+plan from the hot path: the
// statement is lexed once, normalized (whitespace/case/keyword
// canonicalization, literals parameterized into a bind list) and looked up
// by (database, normalized text, bind list, row limit). A hit returns the
// cached bound plan itself: a bound plan is read-only (plan.Node), so
// every execution of the statement shares one. Every cached plan
// remembers the catalog generation of each table it scans and is
// re-validated against the live catalog on every hit, so DDL/INSERT
// invalidates by construction, without TTLs.
//
// Level 2 (result cache) stores materialized results under plan-key +
// generation keys computed at plan time. Because the key pins
// the exact table generations the plan was bound against, a stale entry
// is unreachable the moment a generation moves — invalidation is a key
// mismatch, not an event. The service level is deliberately absent from
// the key: levels decide where and when a query runs, never what it
// returns. internal/core performs the lookup/fill (with single-flight) at
// dispatch, so admission and billing see cache hits as first-class
// queries.
package qcache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Config wires a Cache.
type Config struct {
	// Catalog re-validates cached plans' table generations on every hit.
	Catalog *catalog.Catalog
	// Planner binds and optimizes a parsed SELECT (engine.PlanQuery).
	Planner func(db string, sel *sql.Select) (plan.Node, error)
	// PlanEntries bounds the plan cache (entry count). 0 disables plan
	// caching: Plan still normalizes and computes result keys, so a
	// result-cache-only configuration works.
	PlanEntries int
	// ResultBytes budgets the result cache. 0 disables result caching.
	ResultBytes int64
}

// Cache is the two-level repeat-traffic cache. Safe for concurrent use.
type Cache struct {
	cfg     Config
	results *ResultCache // nil when ResultBytes == 0

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *planEntry
	hits    uint64
	misses  uint64
	invalid uint64
}

// planEntry is one cached bound plan plus the validity and result-key
// metadata captured when it was built.
type planEntry struct {
	key       string
	node      plan.Node  // shared by every execution; read-only
	tables    []tableGen // generations the plan was bound against
	resultKey string
}

type tableGen struct {
	db, table string
	gen       uint64
}

// New builds a Cache.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, entries: make(map[string]*list.Element), lru: list.New()}
	if cfg.ResultBytes > 0 {
		c.results = NewResultCache(cfg.ResultBytes)
	}
	return c
}

// Results returns the result cache, or nil when disabled. The coordinator
// consumes it through the core.ResultCache seam.
func (c *Cache) Results() *ResultCache { return c.results }

// Plan resolves sqlText (a SELECT) against db into an executable plan and
// the query's result-cache key. rowLimit > 0 caps the SELECT's LIMIT; it
// is part of the cache key, so the same SQL at different limits never
// shares a plan. On a plan-cache hit the parse, bind and optimize phases
// are skipped entirely. A statement the lexer or parser rejects fails with
// a *sql.Error carrying the failing token's offset; a non-SELECT or a
// bind/plan failure with a plain error.
func (c *Cache) Plan(db, sqlText string, rowLimit int64) (plan.Node, string, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	key, err := buildKey(db, sqlText, rowLimit, sc)
	if err != nil {
		return nil, "", err
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*planEntry)
		if c.freshLocked(e) {
			c.hits++
			c.lru.MoveToFront(el)
			node, rk := e.node, e.resultKey
			c.mu.Unlock()
			return node, rk, nil
		}
		// A referenced table changed (or vanished): the bound plan embeds
		// the old file list, so rebuild rather than serve stale layout.
		c.invalid++
		c.lru.Remove(el)
		delete(c.entries, key)
	}
	c.misses++
	c.mu.Unlock()

	stmt, err := sql.ParseTokens(sc.toks)
	if err != nil {
		return nil, "", err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, "", fmt.Errorf("only SELECT can be scheduled; got %T", stmt)
	}
	if rowLimit > 0 {
		lim := rowLimit
		if sel.Limit == nil || *sel.Limit > lim {
			sel.Limit = &lim
		}
	}
	node, err := c.cfg.Planner(db, sel)
	if err != nil {
		return nil, "", err
	}
	e := &planEntry{key: key, node: node, resultKey: resultKeyFor(key, node)}
	for _, s := range plan.Scans(node) {
		e.tables = append(e.tables, tableGen{db: s.DB, table: s.Table.Name, gen: s.Table.Generation})
	}

	if c.cfg.PlanEntries <= 0 {
		return node, e.resultKey, nil
	}
	c.mu.Lock()
	if old, ok := c.entries[key]; ok {
		// A concurrent miss filled it first; keep the newer plan.
		c.lru.Remove(old)
	}
	c.entries[key] = c.lru.PushFront(e)
	for c.lru.Len() > c.cfg.PlanEntries {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*planEntry).key)
	}
	c.mu.Unlock()
	return node, e.resultKey, nil
}

// freshLocked reports whether every table generation the entry was bound
// against still matches the live catalog.
func (c *Cache) freshLocked(e *planEntry) bool {
	for _, t := range e.tables {
		g, ok := c.cfg.Catalog.Generation(t.db, t.table)
		if !ok || g != t.gen {
			return false
		}
	}
	return true
}

// resultKeyFor renders the result-cache key: the statement's plan-cache
// key (exact: one key, one plan) plus the generation of every scanned
// table, captured from the bind-time table snapshots so key and plan
// describe the same physical layout.
func resultKeyFor(key string, node plan.Node) string {
	for _, s := range plan.Scans(node) {
		key += fmt.Sprintf("|%s.%s@%d", s.DB, s.Table.Name, s.Table.Generation)
	}
	return key
}

// Snapshot is a point-in-time view of both cache levels, exposed at
// /v1/cache.
type Snapshot struct {
	Plan   PlanStats   `json:"plan"`
	Result ResultStats `json:"result"`
}

// PlanStats counts plan-cache traffic.
type PlanStats struct {
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// ResultStats counts result-cache traffic and budget use.
type ResultStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Capacity  int64  `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Fills     uint64 `json:"fills"`
	Evictions uint64 `json:"evictions"`
}

// Snapshot reports current statistics.
func (c *Cache) Snapshot() Snapshot {
	var s Snapshot
	c.mu.Lock()
	s.Plan = PlanStats{
		Entries:       c.lru.Len(),
		Capacity:      c.cfg.PlanEntries,
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalid,
	}
	c.mu.Unlock()
	if c.results != nil {
		s.Result = c.results.Stats()
	}
	return s
}

// ResultCache is a byte-budgeted LRU of materialized results. It
// implements core.ResultCache; the coordinator calls Get before taking an
// execution slot and Put when a fill query finishes. Safe for concurrent
// use.
type ResultCache struct {
	mu        sync.Mutex
	capacity  int64
	bytes     int64
	entries   map[string]*list.Element
	lru       *list.List // values are *resultEntry
	hits      uint64
	misses    uint64
	fills     uint64
	evictions uint64
}

type resultEntry struct {
	key  string
	res  *engine.Result
	size int64
}

// NewResultCache builds a result cache with a byte budget.
func NewResultCache(capacity int64) *ResultCache {
	return &ResultCache{capacity: capacity, entries: make(map[string]*list.Element), lru: list.New()}
}

// Get returns a hit view of the cached result (engine.Result.HitView).
func (r *ResultCache) Get(key string) (*engine.Result, bool) {
	r.mu.Lock()
	el, ok := r.entries[key]
	if !ok {
		r.misses++
		r.mu.Unlock()
		return nil, false
	}
	r.hits++
	r.lru.MoveToFront(el)
	res := el.Value.(*resultEntry).res
	r.mu.Unlock()
	return res.HitView(), true
}

// Put stores a result. Results larger than the whole budget are rejected;
// otherwise least-recently-used entries are evicted until it fits.
func (r *ResultCache) Put(key string, res *engine.Result) {
	if res == nil {
		return
	}
	size := resultSize(key, res)
	if size > r.capacity {
		return
	}
	r.mu.Lock()
	if el, ok := r.entries[key]; ok {
		r.bytes -= el.Value.(*resultEntry).size
		r.lru.Remove(el)
		delete(r.entries, key)
	}
	r.entries[key] = r.lru.PushFront(&resultEntry{key: key, res: res, size: size})
	r.bytes += size
	r.fills++
	for r.bytes > r.capacity {
		back := r.lru.Back()
		e := back.Value.(*resultEntry)
		r.lru.Remove(back)
		delete(r.entries, e.key)
		r.bytes -= e.size
		r.evictions++
	}
	r.mu.Unlock()
}

// Stats reports current counters.
func (r *ResultCache) Stats() ResultStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResultStats{
		Entries:   r.lru.Len(),
		Bytes:     r.bytes,
		Capacity:  r.capacity,
		Hits:      r.hits,
		Misses:    r.misses,
		Fills:     r.fills,
		Evictions: r.evictions,
	}
}

// resultSize estimates an entry's memory footprint: a fixed per-entry
// overhead, the key and the result itself.
func resultSize(key string, res *engine.Result) int64 {
	return int64(128+len(key)) + res.MemSize()
}
