package engine

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/vec"
)

// DefaultScanPrefetch is how many decoded batches a fully-draining
// base-table scan may hold ahead of its consumer by default.
const DefaultScanPrefetch = 4

// pipelineLive counts live scan-pipeline goroutines, one per pipelined
// scan. It exists so tests can assert that cancellation mid-pipeline
// leaks nothing.
var pipelineLive atomic.Int64

// PipelineGoroutines reports the number of scan-pipeline goroutines
// currently alive across all engines in the process. Test hook.
func PipelineGoroutines() int64 { return pipelineLive.Load() }

// scanContext carries what one base-table (or intermediate) scan needs to
// turn (file, row group) pairs into filtered, compacted batches: the scan
// node (projection, pushed-down filter, zone-map predicates), the file
// list, and the stats accumulator owned by the goroutine running the scan.
//
// The scan is filter-aware and late-materializing: for every surviving row
// group it decodes the filter's predicate columns first, evaluates the
// filter into a selection, and only fetches + decodes the remaining
// projected columns when at least one row survives. Zero-match row groups
// therefore cost exactly the predicate chunks; partially matching ones emit
// an already-compacted batch (survivors gathered), so no selection vector
// travels downstream.
type scanContext struct {
	e      *Engine
	ctx    context.Context
	node   *plan.ScanNode
	files  []catalog.FileMeta
	stats  *Stats
	interm bool

	predPos []int // positions in node.Cols the filter references
	restPos []int // the complement: decoded only for matching row groups

	// prog is the filter compiled to a selection-vector program
	// (compileFilter); nil when the scan has no filter. The program is
	// immutable; per-run state lives in the decoder's vec.Scratch.
	prog *vec.Program
}

// compileFilter compiles a scan's pushed-down filter, once per plan build;
// every scan context of the node shares the program. It is nil when the
// scan has no filter.
func compileFilter(node *plan.ScanNode) (*vec.Program, error) {
	if node.Filter == nil {
		return nil, nil
	}
	return vec.CompilePredicate(node.Filter)
}

func (e *Engine) newScanContext(ctx context.Context, node *plan.ScanNode, prog *vec.Program, files []catalog.FileMeta, stats *Stats, interm bool) *scanContext {
	sc := &scanContext{e: e, ctx: ctx, node: node, prog: prog, files: files, stats: stats, interm: interm}
	if node.Filter == nil {
		return sc
	}
	pred := plan.FilterOrdinals(node.Filter)
	inPred := make(map[int]bool, len(pred))
	for _, p := range pred {
		if p < 0 || p >= len(node.Cols) {
			// Internal inconsistency (unfinalized ordinal): decode every
			// column up front rather than evaluating over a sparse batch.
			pred = nil
			for i := range node.Cols {
				pred = append(pred, i)
			}
			inPred = nil
			break
		}
		inPred[p] = true
	}
	sc.predPos = pred
	for i := range node.Cols {
		if inPred == nil || !inPred[i] {
			sc.restPos = append(sc.restPos, i)
		}
	}
	if inPred == nil {
		sc.restPos = nil
	}
	return sc
}

// account routes n scanned bytes to the proper stats bucket.
func (sc *scanContext) account(n int64) {
	if sc.interm {
		sc.stats.BytesIntermediate += n
	} else {
		sc.stats.BytesScanned += n
	}
}

// open opens one file of the scan for all of its reads. A store fronted by
// a read cache (objstore.CachedRanger) is read through GetRangeCached per
// read, which also attributes a per-query cache hit or miss; any other
// store is opened once (objstore.OpenObject), so a Disk file costs one
// open + fstat + close per (scan, file) instead of per chunk.
func (sc *scanContext) open(key string) (objstore.Object, error) {
	if cr, ok := sc.e.store.(objstore.CachedRanger); ok {
		return &cachedObject{cr: cr, key: key, stats: sc.stats}, nil
	}
	return objstore.OpenObject(sc.e.store, key)
}

// cachedObject reads one file through a read cache. The iterator that owns
// stats runs single-goroutine, so the increments need no synchronization.
type cachedObject struct {
	cr    objstore.CachedRanger
	key   string
	stats *Stats
}

func (o *cachedObject) ReadRange(off, length int64, _ []byte) ([]byte, error) {
	data, hit, err := o.cr.GetRangeCached(o.key, off, length)
	if err == nil {
		if hit {
			o.stats.CacheHits++
		} else {
			o.stats.CacheMisses++
		}
	}
	return data, err
}

func (*cachedObject) Close() error { return nil }

// hold ties obj to the scan: the returned release closes it when the scan
// leaves the file, and the end of sc.ctx closes it if the iterator is
// abandoned first (an early-stopping LIMIT; every query path cancels a
// query-scoped context). Exactly one of the two closes; release may be
// called any number of times.
func (sc *scanContext) hold(obj objstore.Object) (release func()) {
	stop := context.AfterFunc(sc.ctx, func() { obj.Close() })
	return func() {
		if stop() {
			obj.Close()
		}
	}
}

// chunkFetcher is the RangeReader chunk reads go through: reads of obj
// into *buf, reused from chunk to chunk, plus scanned-bytes accounting.
// Reuse is safe because no decoder aliases the fetched bytes.
func (sc *scanContext) chunkFetcher(obj objstore.Object, buf *[]byte) pixfile.RangeReader {
	return func(off, length int64) ([]byte, error) {
		data, err := obj.ReadRange(off, length, *buf)
		if err != nil {
			return nil, err
		}
		*buf = data
		sc.account(int64(len(data)))
		return data, nil
	}
}

// parsedFooter is the immutable value the engine caches in a store's
// ParsedFooterCache: the decoded footer plus its billed byte size.
type parsedFooter struct {
	footer *pixfile.Footer
	bytes  int64
}

// openPixfile opens one file through obj, serving the decoded footer from
// the store's parsed-footer cache when available. Billed footer bytes are
// accounted identically on the hit and miss paths — the cache skips the
// fetch, the parse and the tail validation, never the bill. The tail and
// footer reads take fresh buffers: the parsed footer outlives them.
func (sc *scanContext) openPixfile(meta catalog.FileMeta, obj objstore.Object) (*pixfile.File, error) {
	fetch := func(off, length int64) ([]byte, error) { return obj.ReadRange(off, length, nil) }
	fc, hasFC := sc.e.store.(objstore.ParsedFooterCache)
	if hasFC {
		if v, ok := fc.ParsedFooter(meta.Key, meta.Size); ok {
			pf := v.(*parsedFooter)
			sc.account(pf.bytes)
			return pixfile.OpenWithFooter(fetch, meta.Size, pf.footer, pf.bytes), nil
		}
	}
	f, err := pixfile.Open(fetch, meta.Size)
	if err != nil {
		return nil, fmt.Errorf("engine: open %s: %w", meta.Key, err)
	}
	sc.account(f.FooterBytes())
	if hasFC {
		fc.StoreParsedFooter(meta.Key, meta.Size, &parsedFooter{footer: f.Footer(), bytes: f.FooterBytes()})
	}
	return f, nil
}

// rgDecoder turns one row group into a filtered batch. A scan owns one
// decoder, whose per-column scratch buffers are reused across its row
// groups; buffers are detached whenever a decoded vector escapes into an
// emitted batch, so a batch the consumer still holds never aliases them.
type rgDecoder struct {
	sc      *scanContext
	scratch []*pixfile.ChunkScratch
	vs      vec.Scratch // per-decoder state for the shared kernel program
	buf     []byte      // fetched chunk bytes, reused across every chunk read
}

func newRGDecoder(sc *scanContext) *rgDecoder {
	d := &rgDecoder{sc: sc}
	if sc.node.Filter != nil {
		d.scratch = make([]*pixfile.ChunkScratch, len(sc.node.Cols))
		for i := range d.scratch {
			d.scratch[i] = &pixfile.ChunkScratch{}
		}
	}
	return d
}

// decode reads row group g of f through fetch, evaluates the pushed-down
// filter and returns the compacted batch — nil when no row survives.
func (d *rgDecoder) decode(f *pixfile.File, fetch pixfile.RangeReader, g int) (*col.Batch, error) {
	sc := d.sc
	cols := sc.node.Cols
	st := sc.stats
	n := f.RowGroup(g).NumRows

	if sc.node.Filter == nil {
		vecs := make([]*col.Vector, len(cols))
		for i, c := range cols {
			v, err := f.ReadColumnChunkVia(fetch, g, c, nil)
			if err != nil {
				return nil, err
			}
			vecs[i] = v
		}
		st.RowsScanned += int64(n)
		st.RowGroupsRead++
		return &col.Batch{Vecs: vecs, N: n}, nil
	}

	vecs, dicts, sel, err := d.filterRowGroup(f, fetch, g, n)
	if err != nil {
		return nil, err
	}
	st.RowsScanned += int64(n)
	st.RowGroupsRead++
	st.RowsFiltered += int64(n - len(sel))
	if len(sel) == 0 {
		st.ColumnChunksSkipped += int64(len(sc.restPos))
		return nil, nil
	}
	if len(sel) < n {
		// Selection pushdown into decode: payload columns materialize only
		// the surviving rows (run-skipping for RLE, direct indexing for
		// fixed-width, survivors-only blobs for strings). Chunk bytes
		// fetched — and billed — are identical to the full decode, and the
		// compacted batch matches decode+gather exactly. The sel-decoded
		// vectors escape with the batch, so their scratches detach; the
		// gathered predicate columns are copies, so theirs stay.
		for _, pos := range sc.restPos {
			v, err := f.ReadColumnChunkSelVia(fetch, g, cols[pos], sel, d.scratch[pos])
			if err != nil {
				return nil, err
			}
			vecs[pos] = v
			d.scratch[pos].Detach()
		}
		for _, pos := range sc.predPos {
			if dc, ok := dicts[pos]; ok {
				// Survivors translate straight through the dictionary —
				// fresh allocations, nothing aliases decoder scratch.
				vecs[pos] = gatherDict(dc, sel)
				continue
			}
			vecs[pos] = vecs[pos].Gather(sel)
		}
		return &col.Batch{Vecs: vecs, N: len(sel)}, nil
	}
	for _, pos := range sc.restPos {
		v, err := f.ReadColumnChunkVia(fetch, g, cols[pos], d.scratch[pos])
		if err != nil {
			return nil, err
		}
		vecs[pos] = v
	}
	for pos, dc := range dicts {
		vecs[pos] = materializeDict(dc)
	}
	// The whole row group survives: the batch escapes downstream still
	// aliasing the scratch buffers, so detach them. Code-level chunks were
	// copied out above; their scratch (codes, validity) never escapes and
	// stays reusable.
	for pos, s := range d.scratch {
		if _, ok := dicts[pos]; ok {
			continue
		}
		s.Detach()
	}
	return &col.Batch{Vecs: vecs, N: n}, nil
}

// sequential is the scan loop: one row group at a time, decoded on the
// goroutine that pulls the iterator. Pulled by the consumer itself, it is
// the path for scans that may stop early (LIMIT without a blocking
// operator) — it bills the lazy minimum; pipelined runs it ahead. It opens
// each file once, on arrival, reads the tail, footer and every chunk
// through that Object and releases it on leaving the file, on an error,
// or — abandoned — when sc.ctx ends.
func (sc *scanContext) sequential() exec.BatchIterator {
	dec := newRGDecoder(sc)
	fileIdx, rg := 0, 0
	var f *pixfile.File
	var fetch pixfile.RangeReader // f's chunk reads
	release := func() {}          // closes f's Object
	fail := func(err error) (*col.Batch, error) {
		f = nil
		release()
		if cerr := sc.ctx.Err(); cerr != nil {
			// The end of sc.ctx may have closed the Object under a read.
			return nil, cerr
		}
		return nil, err
	}
	return func() (*col.Batch, error) {
		for {
			if err := sc.ctx.Err(); err != nil {
				return fail(err)
			}
			if f == nil {
				if fileIdx >= len(sc.files) {
					return nil, nil
				}
				meta := sc.files[fileIdx]
				fileIdx++
				obj, err := sc.open(meta.Key)
				if err != nil {
					return fail(fmt.Errorf("engine: open %s: %w", meta.Key, err))
				}
				release = sc.hold(obj)
				if f, err = sc.openPixfile(meta, obj); err != nil {
					return fail(err)
				}
				fetch, rg = sc.chunkFetcher(obj, &dec.buf), 0
			}
			if rg >= f.NumRowGroups() {
				f = nil
				release()
				continue
			}
			g := rg
			rg++
			if len(sc.node.ZonePreds) > 0 && f.PruneRowGroup(g, sc.node.ZonePreds) {
				sc.stats.RowGroupsPruned++
				continue
			}
			b, err := dec.decode(f, fetch, g)
			if err != nil {
				return fail(err)
			}
			if b == nil || b.N == 0 {
				continue
			}
			return b, nil
		}
	}
}

// pipelined is the asynchronous scan: the sequential loop run on its own
// goroutine, up to `depth` batches ahead of the consumer. Batches arrive in
// file/row-group order and the loop is the same code, so results and stats
// are bit-identical to the sequential path, just overlapped.
//
// Billing stays deterministic because the pipeline is only used for scans
// that are provably drained to exhaustion (pipelineEligible): every
// prefetched chunk is consumed and accounted exactly once. The loop accrues
// into a private Stats; each item carries what accrued since the previous
// send, and the consumer folds it into the query total on receipt. The
// goroutine exits when the scan is drained or sc.ctx is canceled — every
// query path wraps its context with a cancel scoped to the query.
func (sc *scanContext) pipelined(depth int) exec.BatchIterator {
	type item struct {
		batch *col.Batch
		stats Stats
		err   error
	}
	ch := make(chan item, depth)
	var st Stats
	ahead := *sc
	ahead.stats = &st
	next := ahead.sequential()

	pipelineLive.Add(1)
	go func() {
		defer pipelineLive.Add(-1)
		defer close(ch)
		for {
			b, err := next()
			it := item{batch: b, stats: st, err: err}
			st = Stats{}
			select {
			case ch <- it:
			case <-sc.ctx.Done():
				return
			}
			if b == nil || err != nil {
				return
			}
		}
	}()

	return func() (*col.Batch, error) {
		select {
		case it, ok := <-ch:
			if !ok {
				return nil, nil
			}
			sc.stats.Add(it.stats)
			return it.batch, it.err
		case <-sc.ctx.Done():
			return nil, sc.ctx.Err()
		}
	}
}

// filterRowGroup decodes row group g's predicate columns and evaluates the
// pushed-down filter, returning the sparse column array (predicate
// positions populated), any code-level dictionary views keyed by position,
// and the surviving selection. The filter is evaluated over a sparse batch
// — only the predicate positions are populated, which is safe because the
// expression references exactly those ordinals. A string column the
// compiled program can judge entirely through dictionary-capable leaves
// stays at the code level: the chunk's dictionary and per-row codes are
// decoded (same fetch, same billed bytes), but no row string is
// materialized until the selection says which rows deserve one.
func (d *rgDecoder) filterRowGroup(f *pixfile.File, fetch pixfile.RangeReader, g, n int) ([]*col.Vector, map[int]*vec.DictCol, []int, error) {
	sc := d.sc
	cols := sc.node.Cols
	vecs := make([]*col.Vector, len(cols))
	var dicts map[int]*vec.DictCol
	for _, pos := range sc.predPos {
		if sc.prog.DictEligible(pos) {
			v, dc, err := f.ReadColumnChunkDictVia(fetch, g, cols[pos], d.scratch[pos])
			if err != nil {
				return nil, nil, nil, err
			}
			if dc != nil {
				if dicts == nil {
					dicts = make(map[int]*vec.DictCol, 1)
				}
				dicts[pos] = &vec.DictCol{Dict: dc.Dict, Codes: dc.Codes, Valid: dc.Valid, N: dc.N}
				continue
			}
			// The chunk wasn't DICT-encoded after all; it decoded normally.
			vecs[pos] = v
			continue
		}
		v, err := f.ReadColumnChunkVia(fetch, g, cols[pos], d.scratch[pos])
		if err != nil {
			return nil, nil, nil, err
		}
		vecs[pos] = v
	}
	sel, err := sc.prog.SelectDict(&col.Batch{Vecs: vecs, N: n}, dicts, &d.vs)
	if err != nil {
		return nil, nil, nil, err
	}
	return vecs, dicts, sel, nil
}

// materializeDict turns a code-level dictionary chunk into the string
// vector the full decode would have produced: Valid present exactly when
// the chunk had nulls, null rows left at the zero value. All allocations
// are fresh — nothing aliases decoder scratch.
func materializeDict(dc *vec.DictCol) *col.Vector {
	v := col.NewVector(col.STRING, dc.N)
	if dc.Valid == nil {
		for i, c := range dc.Codes {
			v.Strs[i] = dc.Dict[c]
		}
		return v
	}
	v.Valid = append([]bool(nil), dc.Valid...)
	for i, c := range dc.Codes {
		if dc.Valid[i] {
			v.Strs[i] = dc.Dict[c]
		}
	}
	return v
}

// gatherDict materializes only the surviving rows of a dictionary chunk,
// matching Vector.Gather over the full decode bit for bit: the validity
// mask appears only when a selected row is null.
func gatherDict(dc *vec.DictCol, sel []int) *col.Vector {
	out := col.NewVector(col.STRING, len(sel))
	anyNull := false
	for i, j := range sel {
		if dc.Valid != nil && !dc.Valid[j] {
			if !anyNull {
				out.Valid = make([]bool, len(sel))
				for k := 0; k < i; k++ {
					out.Valid[k] = true
				}
				anyNull = true
			}
			continue
		}
		if anyNull {
			out.Valid[i] = true
		}
		out.Strs[i] = dc.Dict[dc.Codes[j]]
	}
	return out
}

// pipelineEligible returns the scans of the plan that are guaranteed to be
// drained to exhaustion — the precondition for prefetching row groups
// ahead of consumption. A scan under a LIMIT with no blocking operator in
// between may stop early; prefetching there would inflate BytesScanned
// (the billing unit) by however far the pipeline ran ahead, and make it
// timing-dependent. Those scans run sequentially instead.
func pipelineEligible(root plan.Node) map[*plan.ScanNode]bool {
	out := make(map[*plan.ScanNode]bool)
	for _, s := range plan.Scans(root) {
		if drainsFully(root, s) {
			out[s] = true
		}
	}
	return out
}
