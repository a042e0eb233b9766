// Package cache puts a read-through caching layer in front of any
// objstore.Store. Workers issue one ranged GET per column chunk and reopen
// files on every scan, so without a cache repeated and concurrent scans pay
// the full request count every time — on the remote object store the paper
// deploys on, each of those is a billed round trip.
//
// The CachingStore keeps:
//
//   - a bounded, sharded block LRU: ranged reads are served from
//     fixed-size blocks of each file, so hot byte ranges of base tables
//     stay resident across queries;
//   - single-flight fetches: concurrent readers of one uncached block (or
//     one unresolved file) share a single inner request;
//   - one entry per file holding its Head info and the reader's parsed
//     footer (objstore.CachedRanger), so reopening a file costs no
//     store request and no parse.
//
// It issues no request a reader did not ask for, so its counts are exact:
// a scan's inner requests depend on the blocks it touches, not on timing.
//
// The cache is a physical-I/O optimization only: billed bytes-scanned are
// accounted reader-side, by the engine's scan (scanContext.account), and
// are identical with the cache on or off. Writers must go through the CachingStore (Put and
// Delete invalidate); out-of-band writes to the inner store leave the
// cache stale.
package cache

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/objstore"
)

// maxFiles bounds the per-file entries (Head info and parsed footer).
const maxFiles = 512

// Config parameterizes a CachingStore. The zero value gives the defaults.
type Config struct {
	// Capacity bounds the total bytes of cached blocks across all shards
	// (default 64 MiB).
	Capacity int64
	// ReadAhead is ignored: the cache reads nothing ahead of demand, and
	// read-ahead measured no gain. The field remains only so existing
	// callers compile; ROADMAP item 11 removes it.
	ReadAhead int

	blockSize int64 // fetch and cache granularity (default 256 KiB)
	shards    int   // block-LRU shards (default 8)
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 64 << 20
	}
	if c.blockSize <= 0 {
		c.blockSize = 256 << 10
	}
	if c.shards <= 0 {
		c.shards = 8
	}
	return c
}

// Stats is a snapshot of cache activity. Counters are monotonic.
type Stats struct {
	// Hits / Misses count GetRange calls served entirely from cache vs
	// calls that needed (or waited on) at least one inner request.
	Hits, Misses int64
	// ParsedFooterHits counts reopens served from the decoded-footer cache
	// (no fetch, no CRC/tail validation, no parse).
	ParsedFooterHits int64
	// BytesFromCache counts bytes returned by hits.
	BytesFromCache int64
	// SingleFlightShared counts reads that waited on an in-flight identical
	// fetch instead of issuing their own.
	SingleFlightShared int64
	// Evictions counts blocks dropped under capacity pressure.
	Evictions int64
	// PrefetchWasted is always zero: the cache has no read-ahead. It
	// remains only for callers that still read it; ROADMAP item 11
	// removes it.
	PrefetchWasted int64
}

// CachingStore wraps an objstore.Store with the block LRU, single-flight
// fetches and per-file entries described in the package comment. It is
// safe for concurrent use.
type CachingStore struct {
	inner  objstore.Store
	cfg    Config
	shards []*shard

	mu       sync.Mutex // guards files, fileList and every fileMeta's fields
	files    map[string]*fileMeta
	fileList *list.List // resident entries, front = most recently used

	hits, misses, parsedFooterHits atomic.Int64
	bytesFromCache                 atomic.Int64
	sfShared, evictions            atomic.Int64
}

// fileMeta is the per-file entry. It is in files from the first reader's
// Head on; ready is closed once size/modTime (or err) are set.
type fileMeta struct {
	key     string
	size    int64
	modTime time.Time
	err     error
	ready   chan struct{}
	elem    *list.Element // in fileList once resolved and still in files

	// parsed is the reader's decoded footer for (key, parsedSize), stored
	// via StoreParsedFooter. It rides this entry, and therefore its
	// maxFiles bound and Put/Delete invalidation.
	parsed     any
	parsedSize int64

	// detached is set when the entry leaves files (a Put or Delete of the
	// key, Flush, or the maxFiles bound): its size may predate a write, so
	// reads through it bypass the blocks.
	detached atomic.Bool
}

// block is one fixed-size range of a file: in flight until done is
// closed, resident once it is in its shard's LRU list.
type block struct {
	key  string
	idx  int64
	data []byte
	err  error
	done chan struct{}
	el   *list.Element
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	cur      int64
	ll       *list.List // resident blocks, front = most recently used
	blocks   map[string]map[int64]*block
}

// New layers a cache over inner. All reads and writes of the cached keys
// must go through the returned store.
func New(inner objstore.Store, cfg Config) *CachingStore {
	cfg = cfg.withDefaults()
	s := &CachingStore{
		inner:    inner,
		cfg:      cfg,
		files:    make(map[string]*fileMeta),
		fileList: list.New(),
	}
	perShard := max(cfg.Capacity/int64(cfg.shards), cfg.blockSize)
	for i := 0; i < cfg.shards; i++ {
		s.shards = append(s.shards, &shard{
			capacity: perShard,
			ll:       list.New(),
			blocks:   make(map[string]map[int64]*block),
		})
	}
	return s
}

// Inner returns the wrapped store.
func (s *CachingStore) Inner() objstore.Store { return s.inner }

// Stats returns a snapshot of the cache counters.
func (s *CachingStore) Stats() Stats {
	return Stats{
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		ParsedFooterHits:   s.parsedFooterHits.Load(),
		BytesFromCache:     s.bytesFromCache.Load(),
		SingleFlightShared: s.sfShared.Load(),
		Evictions:          s.evictions.Load(),
	}
}

func (s *CachingStore) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// meta returns the file's entry, resolving it with one Head shared by
// every concurrent first reader. cached reports that no inner request was
// made or waited on.
func (s *CachingStore) meta(key string) (fm *fileMeta, cached bool, err error) {
	s.mu.Lock()
	fm, ok := s.files[key]
	if ok && fm.elem != nil {
		s.fileList.MoveToFront(fm.elem)
		s.mu.Unlock()
		return fm, true, nil
	}
	if !ok {
		fm = &fileMeta{key: key, ready: make(chan struct{})}
		s.files[key] = fm
	}
	s.mu.Unlock()
	if ok {
		s.sfShared.Add(1)
		<-fm.ready
		return fm, false, fm.err
	}

	info, err := s.inner.Head(key)
	s.mu.Lock()
	fm.size, fm.modTime, fm.err = info.Size, info.ModTime, err
	if s.files[key] == fm { // not invalidated or flushed meanwhile
		if err != nil {
			s.dropFile(fm)
		} else {
			fm.elem = s.fileList.PushFront(fm)
			for len(s.files) > maxFiles && s.fileList.Len() > 0 {
				s.dropFile(s.fileList.Back().Value.(*fileMeta))
			}
		}
	}
	s.mu.Unlock()
	close(fm.ready)
	return fm, false, err
}

// ParsedFooter implements objstore.CachedRanger: it returns the
// decoded footer previously stored for key, provided the key is still
// resident and its size matches (a rewrite through this store invalidates
// the entry, so a size check suffices to reject entries stored before an
// observed write).
func (s *CachingStore) ParsedFooter(key string, size int64) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[key]
	if !ok || fm.parsed == nil || fm.parsedSize != size {
		return nil, false
	}
	s.fileList.MoveToFront(fm.elem)
	s.parsedFooterHits.Add(1)
	return fm.parsed, true
}

// StoreParsedFooter implements objstore.CachedRanger. The value must
// be immutable; it is dropped with the file entry on Put/Delete or under
// the maxFiles bound.
func (s *CachingStore) StoreParsedFooter(key string, size int64, footer any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fm, ok := s.files[key]
	if !ok || fm.elem == nil || fm.size != size {
		return
	}
	fm.parsed, fm.parsedSize = footer, size
}

// block returns block idx of the file, from cache or via a single-flight
// inner fetch. cached reports that no inner request was made or waited on.
func (s *CachingStore) block(fm *fileMeta, idx int64) (data []byte, cached bool, err error) {
	off := idx * s.cfg.blockSize
	n := min(s.cfg.blockSize, fm.size-off)
	sh := s.shardFor(fm.key)
	b, resident, fetch := sh.lookup(fm, idx)
	switch {
	case b == nil: // detached entry: read around the cache
		data, err := s.inner.GetRange(fm.key, off, n)
		return data, false, err
	case resident:
		return b.data, true, nil
	case !fetch:
		s.sfShared.Add(1)
		<-b.done
		return b.data, false, b.err
	}
	b.data, b.err = s.inner.GetRange(fm.key, off, n)
	sh.fill(b, s)
	close(b.done)
	return b.data, false, b.err
}

// GetRangeCached is ReadRangeCached into a fresh slice.
func (s *CachingStore) GetRangeCached(key string, off, length int64) ([]byte, bool, error) {
	return s.ReadRangeCached(key, off, length, nil)
}

// ReadRangeCached implements objstore.CachedRanger: like GetRange, but it
// copies into buf's backing array when buf's capacity suffices (a new slice
// otherwise), and it also reports whether the read was served without any
// inner request, so the engine can attribute per-query cache hits.
func (s *CachingStore) ReadRangeCached(key string, off, length int64, buf []byte) ([]byte, bool, error) {
	if off < 0 {
		return nil, false, fmt.Errorf("objstore: range offset %d out of bounds for %s", off, key)
	}
	fm, hit, err := s.meta(key)
	if err != nil {
		return nil, false, err
	}
	size := fm.size
	if off > size {
		return nil, false, fmt.Errorf("objstore: range offset %d out of bounds for %s (size %d)", off, key, size)
	}
	end := size
	if length >= 0 {
		end = off + length
		if end > size {
			return nil, false, fmt.Errorf("objstore: range [%d,%d) out of bounds for %s (size %d)", off, end, key, size)
		}
	}
	n := int(end - off)
	if buf == nil || cap(buf) < n {
		buf = make([]byte, n)
	}
	out := buf[:n]
	if end == off {
		return out, hit, nil
	}

	B := s.cfg.blockSize
	for idx := off / B; idx*B < end; idx++ {
		data, cached, err := s.block(fm, idx)
		if err != nil {
			return nil, false, err
		}
		blockOff := idx * B
		lo, hi := max(off, blockOff), min(end, blockOff+int64(len(data)))
		copy(out[lo-off:hi-off], data[lo-blockOff:hi-blockOff])
		hit = hit && cached
	}
	if hit {
		s.hits.Add(1)
		s.bytesFromCache.Add(int64(len(out)))
	} else {
		s.misses.Add(1)
	}
	return out, hit, nil
}

// dropFile removes a file entry from files and detaches it; s.mu must be
// held.
func (s *CachingStore) dropFile(fm *fileMeta) {
	fm.detached.Store(true)
	if fm.elem != nil {
		s.fileList.Remove(fm.elem)
		fm.elem = nil
	}
	delete(s.files, fm.key)
}

// Flush drops every cached block and file entry while keeping the
// monotonic counters. Used by cold-cache benchmarks.
func (s *CachingStore) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, fm := range s.files {
		s.dropFile(fm)
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.ll.Init()
		sh.blocks = make(map[string]map[int64]*block)
		sh.cur = 0
		sh.mu.Unlock()
	}
}

// invalidate drops the key's file entry and blocks, resident or in flight.
// An in-flight fetch then finds its block gone and caches nothing (it may
// hold pre-write bytes), and readers still holding the old file entry read
// around the cache. Both locks are held together so that no reader can
// resolve the new file entry while a pre-write block is still in the
// shard.
func (s *CachingStore) invalidate(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fm, ok := s.files[key]; ok {
		s.dropFile(fm)
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	for _, b := range sh.blocks[key] {
		if b.el != nil {
			sh.ll.Remove(b.el)
			sh.cur -= int64(len(b.data))
		}
	}
	delete(sh.blocks, key)
	sh.mu.Unlock()
}

// Put implements objstore.Store, invalidating cached state for the key.
func (s *CachingStore) Put(key string, data []byte) error {
	err := s.inner.Put(key, data)
	if err == nil {
		s.invalidate(key)
	}
	return err
}

// Get implements objstore.Store via the block cache, so full-object reads
// warm the same entries ranged reads use.
func (s *CachingStore) Get(key string) ([]byte, error) {
	data, _, err := s.GetRangeCached(key, 0, -1)
	return data, err
}

// GetRange implements objstore.Store.
func (s *CachingStore) GetRange(key string, off, length int64) ([]byte, error) {
	data, _, err := s.GetRangeCached(key, off, length)
	return data, err
}

// Head implements objstore.Store from the per-file entry.
func (s *CachingStore) Head(key string) (objstore.ObjectInfo, error) {
	fm, _, err := s.meta(key)
	if err != nil {
		return objstore.ObjectInfo{}, err
	}
	return objstore.ObjectInfo{Key: key, Size: fm.size, ModTime: fm.modTime}, nil
}

// Delete implements objstore.Store, invalidating cached state for the key.
func (s *CachingStore) Delete(key string) error {
	err := s.inner.Delete(key)
	if err == nil {
		s.invalidate(key)
	}
	return err
}

// List implements objstore.Store (passthrough — listings are not cached).
func (s *CachingStore) List(prefix string) ([]objstore.ObjectInfo, error) {
	return s.inner.List(prefix)
}

// ---- shard (block LRU) ----

// lookup finds block idx of fm's file. A resident block moves to the LRU
// front; an in-flight one is returned for the caller to wait on; with
// neither, lookup records a new in-flight block that the caller must fetch
// and fill. It returns nil for a detached file entry.
func (sh *shard) lookup(fm *fileMeta, idx int64) (b *block, resident, fetch bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fm.detached.Load() {
		return nil, false, false
	}
	if b := sh.blocks[fm.key][idx]; b != nil {
		if b.el != nil {
			sh.ll.MoveToFront(b.el)
			return b, true, false
		}
		return b, false, false
	}
	m := sh.blocks[fm.key]
	if m == nil {
		m = make(map[int64]*block)
		sh.blocks[fm.key] = m
	}
	b = &block{key: fm.key, idx: idx, done: make(chan struct{})}
	m[idx] = b
	return b, false, true
}

// fill ends b's flight. A successful fetch whose entry is still in place
// (no Put, Delete or Flush dropped it meanwhile) becomes resident at the
// LRU front, evicting from the back until under capacity; otherwise the
// entry is removed and the bytes go only to the readers that waited.
func (sh *shard) fill(b *block, s *CachingStore) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.blocks[b.key][b.idx] != b {
		return
	}
	if b.err != nil || int64(len(b.data)) > sh.capacity {
		sh.remove(b)
		return
	}
	b.el = sh.ll.PushFront(b)
	sh.cur += int64(len(b.data))
	for sh.cur > sh.capacity {
		victim := sh.ll.Back().Value.(*block)
		sh.ll.Remove(victim.el)
		sh.cur -= int64(len(victim.data))
		sh.remove(victim)
		s.evictions.Add(1)
	}
}

// remove deletes b from the block map; sh.mu must be held.
func (sh *shard) remove(b *block) {
	m := sh.blocks[b.key]
	delete(m, b.idx)
	if len(m) == 0 {
		delete(sh.blocks, b.key)
	}
}

var (
	_ objstore.Store        = (*CachingStore)(nil)
	_ objstore.CachedRanger = (*CachingStore)(nil)
)
