package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/catalog"
	"repro/internal/col"
	"repro/internal/exec"
	"repro/internal/objstore"
	"repro/internal/pixfile"
	"repro/internal/plan"
	"repro/internal/vec"
)

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

// read is every read of the scan: one ReadRange of obj, with the hit or
// miss of a read cache's Object (objstore.HitReporter) counted into the
// scan's stats. It runs on the goroutine that owns stats, so the counts
// need no synchronization.
func (sc *scanContext) read(obj objstore.Object, off, length int64, buf []byte) ([]byte, error) {
	data, err := obj.ReadRange(off, length, buf)
	if err != nil {
		return nil, err
	}
	if hr, ok := obj.(objstore.HitReporter); ok {
		if hr.Hit() {
			sc.stats.CacheHits++
		} else {
			sc.stats.CacheMisses++
		}
	}
	return data, nil
}

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
		data, err := sc.read(obj, off, length, *buf)
		if err != nil {
			return nil, err
		}
		*buf = data
		sc.account(int64(len(data)))
		return data, nil
	}
}

// parsedFooter is the immutable value the engine caches through an
// Object's FooterCacher: the decoded footer plus its billed byte size.
type parsedFooter struct {
	footer *pixfile.Footer
	bytes  int64
}

// openPixfile opens one file through obj, serving the decoded footer from
// the Object's footer cache (a Disk's or a read cache's) when it has one.
// Billed footer bytes are accounted identically on the hit and miss paths
// — the cache skips the fetch, the parse and the tail validation, never
// the bill. An intermediate is read once, so its footer is not stored. The
// tail and footer reads take fresh buffers: the parsed footer outlives
// them.
func (sc *scanContext) openPixfile(meta catalog.FileMeta, obj objstore.Object) (*pixfile.File, error) {
	fetch := func(off, length int64) ([]byte, error) { return sc.read(obj, off, length, nil) }
	fc, _ := obj.(objstore.FooterCacher)
	if sc.interm {
		fc = nil
	}
	if fc != nil {
		if v, ok := fc.ParsedFooter(); ok {
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
	if fc != nil {
		fc.StoreParsedFooter(&parsedFooter{footer: f.Footer(), bytes: f.FooterBytes()})
	}
	return f, nil
}

// rgDecoder turns one row group into a filtered batch. It owns one set of
// decode buffers: a ChunkScratch per column, which owns the vector decoded
// through it, gather targets per column and type for a partly surviving row
// group's predicate columns, and the batch it emits. That batch is valid
// until the consumer's next pull, which decodes over it.
type rgDecoder struct {
	sc      *scanContext
	scratch []pixfile.ChunkScratch
	gather  [][col.TIMESTAMP + 1]col.Vector
	batch   col.Batch
	vs      vec.Scratch // per-decoder state for the shared kernel program
	buf     []byte      // fetched chunk bytes, reused across every chunk read
}

// decoderPool recycles the decoders of scans that ended — decode buffers,
// kernel scratch and chunk buffer — for the scans that start.
var decoderPool = sync.Pool{New: func() any { return new(rgDecoder) }}

// newRGDecoder draws a decoder sized for sc's columns from the pool.
func newRGDecoder(sc *scanContext) *rgDecoder {
	n := len(sc.node.Cols)
	d := decoderPool.Get().(*rgDecoder)
	d.sc = sc
	if cap(d.scratch) < n {
		d.scratch, d.gather, d.batch.Vecs = make([]pixfile.ChunkScratch, n), make([][col.TIMESTAMP + 1]col.Vector, n), make([]*col.Vector, n)
	}
	d.scratch, d.gather, d.batch.Vecs = d.scratch[:n], d.gather[:n], d.batch.Vecs[:n]
	return d
}

// release returns the decoder to the pool, once the consumer pulled the
// end of the stream. A scan that fails or is abandoned leaves its decoder
// to the collector: its batch may still be read.
func (d *rgDecoder) release() {
	for _, v := range d.batch.Vecs {
		col.Poison(v)
	}
	d.sc = nil
	decoderPool.Put(d)
}

// emit returns the decoder's batch, of n rows.
func (d *rgDecoder) emit(n int) *col.Batch {
	d.batch.N = n
	return &d.batch
}

// decode reads row group g of f through fetch, evaluates the pushed-down
// filter and returns the compacted batch — nil when no row survives.
func (d *rgDecoder) decode(f *pixfile.File, fetch pixfile.RangeReader, g int) (*col.Batch, error) {
	sc := d.sc
	cols := sc.node.Cols
	st := sc.stats
	n := f.RowGroup(g).NumRows
	vecs := d.batch.Vecs

	if sc.node.Filter == nil {
		for i, c := range cols {
			v, err := f.ReadColumnChunkVia(fetch, g, c, &d.scratch[i])
			if err != nil {
				return nil, err
			}
			vecs[i] = v
		}
		st.RowsScanned += int64(n)
		st.RowGroupsRead++
		return d.emit(n), nil
	}

	sel, err := d.filterRowGroup(f, fetch, g, n)
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
		// fixed-width, survivors-only blobs or codes for strings). Chunk
		// bytes fetched — and billed — are identical to the full decode,
		// and the compacted batch matches decode+gather exactly. The
		// predicate columns gather into the decoder's own targets.
		for _, pos := range sc.restPos {
			v, err := f.ReadColumnChunkSelVia(fetch, g, cols[pos], sel, &d.scratch[pos])
			if err != nil {
				return nil, err
			}
			vecs[pos] = v
		}
		for _, pos := range sc.predPos {
			vecs[pos] = vecs[pos].GatherInto(&d.gather[pos][vecs[pos].Type], sel)
		}
		return d.emit(len(sel)), nil
	}
	for _, pos := range sc.restPos {
		v, err := f.ReadColumnChunkVia(fetch, g, cols[pos], &d.scratch[pos])
		if err != nil {
			return nil, err
		}
		vecs[pos] = v
	}
	return d.emit(n), nil
}

// loop is the scan: one row group at a time, decoded on the goroutine that
// pulls it, so a scan under an early-stopping LIMIT bills the lazy minimum.
// It opens each file once, on arrival, reads the tail, footer and every
// chunk through that Object and releases it on leaving the file, on an
// error, or — abandoned — when sc.ctx ends. Its decoder is drawn at the
// first file (a merge creates its streams up front) and returned to the
// pool at the end of the stream.
func (sc *scanContext) loop() exec.BatchIterator {
	var dec *rgDecoder
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
					if dec != nil {
						dec.release()
						dec = nil
					}
					return nil, nil
				}
				meta := sc.files[fileIdx]
				fileIdx++
				obj, err := sc.e.store.Open(meta.Key)
				if err != nil {
					return fail(fmt.Errorf("engine: open %s: %w", meta.Key, err))
				}
				release = sc.hold(obj)
				if f, err = sc.openPixfile(meta, obj); err != nil {
					return fail(err)
				}
				if dec == nil {
					dec = newRGDecoder(sc)
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

// filterRowGroup decodes row group g's predicate columns into the
// decoder's buffers and evaluates the pushed-down filter, returning the surviving
// selection (it aliases d.vs). The filter is evaluated over a sparse batch
// — only the predicate positions are this row group's, which is safe
// because the expression references exactly those ordinals. A DICT chunk
// arrives dictionary-coded, so the program's dictionary-capable leaves
// judge each distinct value once and no row string is materialized.
func (d *rgDecoder) filterRowGroup(f *pixfile.File, fetch pixfile.RangeReader, g, n int) ([]int, error) {
	sc := d.sc
	cols := sc.node.Cols
	for _, pos := range sc.predPos {
		v, err := f.ReadColumnChunkVia(fetch, g, cols[pos], &d.scratch[pos])
		if err != nil {
			return nil, err
		}
		d.batch.Vecs[pos] = v
	}
	d.batch.N = n
	return sc.prog.Select(&d.batch, &d.vs)
}
