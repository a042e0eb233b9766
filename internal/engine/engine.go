// Package engine glues the SQL front-end, planner, executor, catalog,
// columnar format and object store into a runnable query engine. It is the
// execution substrate that both the "VM side" and the CF workers of
// Pixels-Turbo run; internal/core schedules onto it.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/obs"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/sql"
)

// Engine executes SQL over tables stored as pixfiles in an object store.
// It is safe for concurrent use.
type Engine struct {
	cat   *catalog.Catalog
	store objstore.Store

	mu      sync.Mutex
	fileSeq map[string]int // per-table file sequence for unique keys
}

// New builds an engine over a catalog and store. Every expression runs
// through a program internal/vec compiles when the operator is built.
func New(cat *catalog.Catalog, store objstore.Store) *Engine {
	return &Engine{cat: cat, store: store, fileSeq: make(map[string]int)}
}

// Catalog exposes the metadata service.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store exposes the object store.
func (e *Engine) Store() objstore.Store { return e.store }

// Stats describes the physical work a query performed. BytesScanned counts
// base-table bytes — the billing unit the $/TB-scan prices of Section
// III-B apply to; BytesIntermediate counts reads of CF worker
// intermediates and the join-build reads of every CF task but task 0,
// which re-reads what the query already billed: infrastructure cost, not
// "data scanned".
type Stats struct {
	RowsReturned      int64
	RowsScanned       int64
	BytesScanned      int64
	BytesIntermediate int64
	RowGroupsRead     int
	RowGroupsPruned   int
	// RowGroupsReread counts the build row groups every CF task but task 0
	// reads: a GET each, which RowGroupsRead, like a serial run, leaves out.
	RowGroupsReread int
	// ColumnChunksSkipped counts projected column chunks a scan never
	// fetched or decoded because the row group's predicate columns selected
	// zero rows (late materialization). Unlike cache hits, skipped chunks
	// do reduce BytesScanned: the bytes were genuinely not scanned.
	ColumnChunksSkipped int64
	// RowsFiltered counts rows dropped by scans' pushed-down filters
	// (RowsScanned still counts them; they were decoded to be judged).
	RowsFiltered int64
	// CacheHits/CacheMisses count this query's ranged reads served from
	// the object-store read cache vs reads that paid a store request.
	// Cache hits never reduce BytesScanned — the $/TB billing unit counts
	// bytes scanned, not bytes physically fetched.
	CacheHits   int64
	CacheMisses int64
}

// Add merges two stats.
func (s *Stats) Add(o Stats) {
	s.RowsReturned += o.RowsReturned
	s.RowsScanned += o.RowsScanned
	s.BytesScanned += o.BytesScanned
	s.BytesIntermediate += o.BytesIntermediate
	s.RowGroupsRead += o.RowGroupsRead
	s.RowGroupsPruned += o.RowGroupsPruned
	s.RowGroupsReread += o.RowGroupsReread
	s.ColumnChunksSkipped += o.ColumnChunksSkipped
	s.RowsFiltered += o.RowsFiltered
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Types   []col.Type
	Rows    [][]col.Value
	Stats   Stats
	// Cached marks a result served from the result cache without touching
	// the object store. Stats then reports only RowsReturned (no scan
	// happened, so nothing was scanned or billed); Origin keeps the stats
	// of the execution that originally filled the cache entry.
	Cached bool
	Origin *Stats
}

// HitView is r as a result-cache hit reads it: rows, columns and types
// shared (callers treat results as immutable), Stats reduced to the rows
// returned — a hit scans nothing, so it bills nothing — and r's stats
// kept as Origin.
func (r *Result) HitView() *Result {
	origin := r.Stats
	return &Result{
		Columns: r.Columns,
		Types:   r.Types,
		Rows:    r.Rows,
		Stats:   Stats{RowsReturned: int64(len(r.Rows))},
		Cached:  true,
		Origin:  &origin,
	}
}

// MemSize estimates the memory a result holds: per-column names, per-row
// and per-value headers, and string payloads.
func (r *Result) MemSize() int64 {
	var size int64
	for _, c := range r.Columns {
		size += int64(len(c)) + 24
	}
	size += int64(len(r.Types))
	for _, row := range r.Rows {
		size += 24
		for _, v := range row {
			size += 48 + int64(len(v.S))
		}
	}
	return size
}

// resultFromBatch converts an output batch. String values are detached
// from the batch's backing arrays: decoded string vectors alias per-chunk
// blobs (and callers may retain Results long after the query), so a small
// result must not pin chunk-sized buffers.
func resultFromBatch(schema *col.Schema, b *col.Batch, stats Stats) *Result {
	r := &Result{Stats: stats}
	for _, f := range schema.Fields {
		r.Columns = append(r.Columns, f.Name)
		r.Types = append(r.Types, f.Type)
	}
	for i := 0; i < b.N; i++ {
		row := b.Row(i)
		for c := range row {
			if row[c].Type == col.STRING && !row[c].Null {
				row[c].S = strings.Clone(row[c].S)
			}
		}
		r.Rows = append(r.Rows, row)
	}
	r.Stats.RowsReturned = int64(b.N)
	return r
}

// PlanQuery parses nothing: it binds an already-parsed SELECT into an
// executable plan.
func (e *Engine) PlanQuery(db string, sel *sql.Select) (plan.Node, error) {
	return plan.NewBinder(e.cat, db).BindSelect(sel)
}

// Execute parses and runs any single statement against db. USE statements
// are rejected here: session state belongs to the caller.
func (e *Engine) Execute(ctx context.Context, db, text string) (*Result, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return e.ExecuteStmt(ctx, db, stmt)
}

// ExecuteStmt runs a parsed statement.
func (e *Engine) ExecuteStmt(ctx context.Context, db string, stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		node, err := e.PlanQuery(db, s)
		if err != nil {
			return nil, err
		}
		return e.RunPlan(ctx, node)
	case *sql.Explain:
		inner, ok := s.Stmt.(*sql.Select)
		if !ok {
			return nil, fmt.Errorf("engine: EXPLAIN supports SELECT only")
		}
		node, err := e.PlanQuery(db, inner)
		if err != nil {
			return nil, err
		}
		return explainResult(node), nil
	case *sql.CreateDatabase:
		return statusResult("CREATE DATABASE"), e.cat.CreateDatabase(s.Name)
	case *sql.DropDatabase:
		return statusResult("DROP DATABASE"), e.cat.DropDatabase(s.Name)
	case *sql.CreateTable:
		return statusResult("CREATE TABLE"), e.createTable(db, s)
	case *sql.DropTable:
		return statusResult("DROP TABLE"), e.dropTable(db, s)
	case *sql.Insert:
		n, err := e.insert(db, s)
		if err != nil {
			return nil, err
		}
		r := statusResult(fmt.Sprintf("INSERT %d", n))
		return r, nil
	case *sql.ShowDatabases:
		return e.showDatabases(), nil
	case *sql.ShowTables:
		return e.showTables(db)
	case *sql.Describe:
		return e.describe(db, s.Table)
	case *sql.Use:
		return nil, fmt.Errorf("engine: USE is handled by the client session")
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func statusResult(msg string) *Result {
	return &Result{
		Columns: []string{"status"},
		Types:   []col.Type{col.STRING},
		Rows:    [][]col.Value{{col.Str(msg)}},
	}
}

func explainResult(node plan.Node) *Result {
	r := &Result{Columns: []string{"plan"}, Types: []col.Type{col.STRING}}
	text := plan.Explain(node)
	for _, line := range splitLines(text) {
		r.Rows = append(r.Rows, []col.Value{col.Str(line)})
	}
	return r
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// RunPlan executes a plan locally (single process — the "VM side" path)
// and materializes the result. It is the degenerate run of the fragment
// runner (runner.go): one task, no split, no merge, pulled lazily on the
// caller's goroutine — so LIMIT plans stop early and bill the minimum.
func (e *Engine) RunPlan(ctx context.Context, node plan.Node) (*Result, error) {
	// Scope the query's scans to this call: whenever RunPlan returns —
	// success, error, or early abandonment of an operator — the cancel
	// closes any Object a scan still holds.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx, span := obs.StartSpan(ctx, "exec:serial")
	defer span.End()
	res, err := e.collectPlan(ctx, node, nil)
	if err != nil {
		return nil, err
	}
	span.SetAttr("rows_scanned", res.Stats.RowsScanned)
	span.SetAttr("bytes_scanned", res.Stats.BytesScanned)
	return res, nil
}

// scanFactory builds per-scan batch streams. overrides maps a ScanNode to
// a replacement input (a task's file partition, or the merge's worker
// streams); nil means the table's own files. The iterators apply the
// node's pushed-down filter and run on the consumer's goroutine, so
// early-stopping plans bill the minimum.
func (e *Engine) scanFactory(ctx context.Context, stats *Stats, overrides map[*plan.ScanNode]scanOverride) func(*plan.ScanNode) (func() (exec.BatchIterator, error), error) {
	return func(node *plan.ScanNode) (func() (exec.BatchIterator, error), error) {
		filter, err := compileFilter(node)
		if err != nil {
			return nil, err
		}
		return func() (exec.BatchIterator, error) {
			files := node.Table.Files
			if ov, ok := overrides[node]; ok {
				if ov.iter != nil {
					return ov.iter, nil
				}
				files = ov.files
			}
			return e.newScanContext(ctx, node, filter, files, stats, false).loop(), nil
		}, nil
	}
}

// scanOverride replaces a scan's input: files substitutes a file list for
// the table's own (a task's partition); iter replaces file reading entirely
// with a batch stream the caller accounts for (the merge's task outputs).
type scanOverride struct {
	files []catalog.FileMeta
	iter  exec.BatchIterator
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// tableKeyPrefix is the object-store layout of a table.
func tableKeyPrefix(db, table string) string { return db + "/" + table + "/" }

// nextFileKey allocates a unique object key for a new table file. The
// per-table counter is seeded on first use from the keys the catalog
// already lists for the table (files), so an engine reopened over a
// DataDir continues the sequence instead of overwriting data-000000.
func (e *Engine) nextFileKey(db, table string, files []catalog.FileMeta) string {
	prefix := tableKeyPrefix(db, table)
	e.mu.Lock()
	defer e.mu.Unlock()
	seq, seeded := e.fileSeq[prefix]
	if !seeded {
		for _, f := range files {
			var n int
			if _, err := fmt.Sscanf(strings.TrimPrefix(f.Key, prefix), "data-%d.pxl", &n); err == nil && n >= seq {
				seq = n + 1
			}
		}
	}
	e.fileSeq[prefix] = seq + 1
	return fmt.Sprintf("%sdata-%06d.pxl", prefix, seq)
}

// LoadBatch writes a batch as a new file of the table and registers it in
// the catalog. It is the bulk-load path used by the workload generator.
func (e *Engine) LoadBatch(db, table string, batch *col.Batch, opts pixfile.WriterOptions) error {
	t, err := e.cat.GetTable(db, table)
	if err != nil {
		return err
	}
	w := pixfile.NewWriter(t.Schema(), opts)
	if err := w.Append(batch); err != nil {
		return err
	}
	data, err := w.Finish()
	if err != nil {
		return err
	}
	key := e.nextFileKey(db, table, t.Files)
	if err := e.store.Put(key, data); err != nil {
		return err
	}
	return e.cat.AddFiles(db, table, catalog.FileMeta{
		Key: key, Size: int64(len(data)), Rows: int64(batch.N),
	})
}
