package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objstore"
)

// countingStore wraps a Store and counts the requests that reach it: each
// read of one of its Objects is one GET. An optional gate blocks reads so
// tests can force request overlap.
type countingStore struct {
	objstore.Store
	gets, heads atomic.Int64
	gate        chan struct{} // when non-nil, a read blocks until closed
	entered     chan struct{} // when non-nil, signaled on a read's entry
}

func (c *countingStore) Open(key string) (objstore.Object, error) {
	o, err := c.Store.Open(key)
	if err != nil {
		return nil, err
	}
	return &countingObject{Object: o, c: c}, nil
}

type countingObject struct {
	objstore.Object
	c *countingStore
}

func (o *countingObject) ReadRange(off, length int64, buf []byte) ([]byte, error) {
	c := o.c
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.gate != nil {
		<-c.gate
	}
	c.gets.Add(1)
	return o.Object.ReadRange(off, length, buf)
}

func (c *countingStore) Head(key string) (objstore.ObjectInfo, error) {
	c.heads.Add(1)
	return c.Store.Head(key)
}

func blob(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i/7)
	}
	return b
}

// TestStoreContract checks that a CachingStore honors the same Store
// semantics as the raw backends (the objstore package's suite, adapted):
// round trips, overwrite visibility through invalidation, range
// semantics, missing-key errors and caller-mutation safety.
func TestStoreContract(t *testing.T) {
	s := New(objstore.NewMemory(), Config{})

	if _, err := s.Get("missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("Get(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Head("missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("Head(missing) err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("missing"); err != nil {
		t.Errorf("Delete(missing) err = %v, want nil (S3 semantics)", err)
	}

	data := []byte("hello, columnar world")
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("db/tbl/file-0.pxl")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	// Overwrite must be visible through the cache (Put invalidates).
	if err := s.Put("db/tbl/file-0.pxl", []byte("v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, _ = s.Get("db/tbl/file-0.pxl")
	if string(got) != "v2" {
		t.Fatalf("overwrite not visible through cache: %q", got)
	}
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatal(err)
	}

	rng, err := objstore.GetRange(s, "db/tbl/file-0.pxl", 7, 8)
	if err != nil || string(rng) != "columnar" {
		t.Fatalf("GetRange = %q, %v", rng, err)
	}
	rng, err = objstore.GetRange(s, "db/tbl/file-0.pxl", 7, -1)
	if err != nil || string(rng) != "columnar world" {
		t.Fatalf("GetRange to end = %q, %v", rng, err)
	}
	if _, err := objstore.GetRange(s, "db/tbl/file-0.pxl", 7, 1000); err == nil {
		t.Errorf("GetRange past end did not error")
	}
	if _, err := objstore.GetRange(s, "db/tbl/file-0.pxl", -1, 2); err == nil {
		t.Errorf("GetRange negative offset did not error")
	}
	if rng, err = objstore.GetRange(s, "db/tbl/file-0.pxl", int64(len(data)), 0); err != nil || len(rng) != 0 {
		t.Errorf("zero-length range at EOF = %q, %v", rng, err)
	}

	info, err := s.Head("db/tbl/file-0.pxl")
	if err != nil || info.Size != int64(len(data)) {
		t.Fatalf("Head = %+v, %v", info, err)
	}

	if err := s.Put("db/tbl/file-1.pxl", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("db/other/file-9.pxl", []byte("y")); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List("db/tbl/")
	if err != nil || len(infos) != 2 {
		t.Fatalf("List = %v, %v", infos, err)
	}

	// Delete invalidates: the cached entry must not resurrect the object.
	if _, err := s.Get("db/tbl/file-1.pxl"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("db/tbl/file-1.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("db/tbl/file-1.pxl"); !errors.Is(err, objstore.ErrNotFound) {
		t.Errorf("deleted key still served: %v", err)
	}

	if err := s.Put("", []byte("x")); err == nil {
		t.Errorf("Put with empty key accepted")
	}

	// Mutating a returned buffer must not corrupt cached blocks.
	got, _ = s.Get("db/tbl/file-0.pxl")
	for i := range got {
		got[i] = 0
	}
	got2, _ := s.Get("db/tbl/file-0.pxl")
	if !bytes.Equal(got2, data) {
		t.Errorf("cache corrupted by caller mutation")
	}
}

// TestFooterCacheReopen models pixfile.Open's access pattern (tail read,
// then footer read): the second open of the same key must cost zero
// store requests.
func TestFooterCacheReopen(t *testing.T) {
	mem := objstore.NewMemory()
	const size = 200 << 10
	if err := mem.Put("k", blob(size)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{})

	open := func() {
		t.Helper()
		tail, err := objstore.GetRange(c, "k", size-8, 8)
		if err != nil || len(tail) != 8 {
			t.Fatalf("tail read: %v", err)
		}
		footer, err := objstore.GetRange(c, "k", size-2048, 2040)
		if err != nil || len(footer) != 2040 {
			t.Fatalf("footer read: %v", err)
		}
	}
	open()
	heads, gets := cs.heads.Load(), cs.gets.Load()
	if heads != 1 || gets != 1 {
		t.Fatalf("cold open cost %d heads + %d gets, want 1 + 1 (one block)", heads, gets)
	}
	open()
	if cs.heads.Load() != heads || cs.gets.Load() != gets {
		t.Fatalf("warm open touched the store: %d heads, %d gets", cs.heads.Load(), cs.gets.Load())
	}
	if _, hit, err := c.GetRangeCached("k", size-8, 8); err != nil || !hit {
		t.Fatalf("warm tail read not reported as hit (err %v)", err)
	}
}

// TestSingleFlight forces N concurrent reads of the same uncached block
// to overlap and checks exactly one reaches the store.
func TestSingleFlight(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(1<<20)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{})
	// Warm the metadata so the gated phase is block fetches only.
	if _, err := c.Head("k"); err != nil {
		t.Fatal(err)
	}

	cs.gate = make(chan struct{})
	cs.entered = make(chan struct{}, 64)
	const readers = 16
	var wg sync.WaitGroup
	errs := make([]error, readers)
	datas := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			datas[i], errs[i] = objstore.GetRange(c, "k", 100, 5000)
		}(i)
	}
	<-cs.entered // one fetch is inside the store, blocked on the gate
	// Give the remaining readers time to join the in-flight call.
	time.Sleep(20 * time.Millisecond)
	close(cs.gate)
	wg.Wait()

	want := blob(1 << 20)[100:5100]
	for i := range errs {
		if errs[i] != nil || !bytes.Equal(datas[i], want) {
			t.Fatalf("reader %d: err %v, data ok %v", i, errs[i], bytes.Equal(datas[i], want))
		}
	}
	if got := cs.gets.Load(); got != 1 {
		t.Fatalf("%d store fetches for one block under %d concurrent readers, want 1", got, readers)
	}
	if st := c.Stats(); st.SingleFlightShared == 0 {
		t.Fatalf("no single-flight sharing recorded: %+v", st)
	}
}

// TestInvalidateDuringFetch overwrites a key while a read of it is in
// flight: the racing read may serve either version, but nothing from the
// poisoned fetch may be cached — the next read must refetch and see the
// new bytes.
func TestInvalidateDuringFetch(t *testing.T) {
	mem := objstore.NewMemory()
	old := bytes.Repeat([]byte{0xAA}, 8<<10)
	fresh := bytes.Repeat([]byte{0xBB}, 8<<10)
	if err := mem.Put("k", old); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{})
	if _, err := c.Head("k"); err != nil { // warm meta: gated phase is the block fetch
		t.Fatal(err)
	}

	cs.gate = make(chan struct{})
	cs.entered = make(chan struct{}, 4)
	done := make(chan error, 1)
	go func() {
		_, err := objstore.GetRange(c, "k", 0, 1024)
		done <- err
	}()
	<-cs.entered                              // block fetch is in flight, parked on the gate
	if err := c.Put("k", fresh); err != nil { // Put is not gated; poisons the flight
		t.Fatal(err)
	}
	close(cs.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The poisoned fetch must not have populated the cache: this read
	// refetches and sees the new bytes.
	gets := cs.gets.Load()
	got, err := objstore.GetRange(c, "k", 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh[:1024]) {
		t.Fatalf("stale bytes served after overwrite")
	}
	if cs.gets.Load() == gets {
		t.Fatalf("post-overwrite read served from cache — poisoned fetch was stored")
	}
}

// TestStaleEntryReadsAroundCache: a reader that resolved the file before
// an overwrite keeps using that entry, whose size is the old one. Its block
// reads must bypass the cache, or a block cut to the old length would be
// served to readers of the new file.
func TestStaleEntryReadsAroundCache(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(1536)); err != nil {
		t.Fatal(err)
	}
	c := New(mem, Config{blockSize: 1024, shards: 1})
	stale, _, err := c.meta("k")
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xBB}, 4096)
	if err := c.Put("k", fresh); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.block(stale, 1); err != nil { // old size: a 512-byte block
		t.Fatal(err)
	}
	got, err := objstore.GetRange(c, "k", 1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh[1024:2048]) {
		t.Fatal("a block read through the pre-overwrite entry was cached")
	}
}

// TestLRUEviction bounds the block cache and checks cold entries fall out.
func TestLRUEviction(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(8<<10)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{Capacity: 2048, blockSize: 1024, shards: 1})
	read := func(off int64) {
		t.Helper()
		if _, err := objstore.GetRange(c, "k", off, 1024); err != nil {
			t.Fatal(err)
		}
	}
	read(0)
	read(1024)
	read(2048) // capacity 2 blocks → evicts block 0
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions at capacity: %+v", st)
	}
	gets := cs.gets.Load()
	read(0) // must refetch
	if cs.gets.Load() != gets+1 {
		t.Fatalf("evicted block served from cache")
	}
	// Still-resident block stays a hit.
	gets = cs.gets.Load()
	if _, hit, err := c.GetRangeCached("k", 0, 1024); err != nil || !hit {
		t.Fatalf("just-refetched block not a hit (err %v)", err)
	}
	if cs.gets.Load() != gets {
		t.Fatalf("hit touched the store")
	}
}

// TestConcurrentScans hammers the cache from parallel readers and writers
// (race-detector coverage) while verifying every byte served.
func TestConcurrentScans(t *testing.T) {
	mem := objstore.NewMemory()
	const n = 64 << 10
	keys := []string{"t/a.pxl", "t/b.pxl", "t/c.pxl", "t/d.pxl"}
	for _, k := range keys {
		if err := mem.Put(k, blob(n)); err != nil {
			t.Fatal(err)
		}
	}
	want := blob(n)
	// Small capacity forces eviction churn under load.
	c := New(mem, Config{Capacity: 64 << 10, blockSize: 4096, shards: 2})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			key := keys[g%len(keys)]
			if g%2 == 0 {
				// Sequential scan in chunk-sized steps.
				for off := int64(0); off+4096 <= n; off += 4096 {
					got, err := objstore.GetRange(c, key, off, 4096)
					if err != nil || !bytes.Equal(got, want[off:off+4096]) {
						t.Errorf("seq read %s@%d: %v", key, off, err)
						return
					}
				}
			} else {
				for i := 0; i < 100; i++ {
					off := rng.Int63n(n - 512)
					got, err := objstore.GetRange(c, key, off, 512)
					if err != nil || !bytes.Equal(got, want[off:off+512]) {
						t.Errorf("rand read %s@%d: %v", key, off, err)
						return
					}
				}
			}
		}(g)
	}
	// A concurrent writer exercises invalidation: of disjoint keys, and of
	// the scanned keys mid-read (rewritten with the same bytes, so every
	// read must still verify).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("w/%d", i%5)
			if err := c.Put(k, blob(100+i)); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if _, err := c.Get(k); err != nil {
				t.Errorf("get after put: %v", err)
				return
			}
			if err := c.Put(keys[i%len(keys)], want); err != nil {
				t.Errorf("rewrite: %v", err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestCountersAttachToMetered layers the cache over a Metered store, the
// production layering of pixelsdb.Open: hits and misses are counted once,
// in the cache's Stats, and only misses reach the store beneath.
func TestCountersAttachToMetered(t *testing.T) {
	met := objstore.NewMetered(objstore.NewMemory())
	c := New(met, Config{})
	if err := c.Put("k", blob(8<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := objstore.GetRange(c, "k", 0, 4096); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := objstore.GetRange(c, "k", 0, 4096); err != nil { // hit
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	if u := met.Usage(); u.Gets != 1 || u.Heads != 1 {
		t.Fatalf("store beneath saw %d gets, %d heads; want 1 and 1", u.Gets, u.Heads)
	}
	met.Reset()
	if _, err := objstore.GetRange(c, "k", 0, 4096); err != nil { // hit after reset
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("hits after a store Reset = %d, want 2", st.Hits)
	}
	if u := met.Usage(); u != (objstore.Usage{}) {
		t.Fatalf("a hit reached the store: %+v", u)
	}
}

// open opens key on c, failing the test on an error.
func open(t *testing.T, c *CachingStore, key string) objstore.Object {
	t.Helper()
	o, err := c.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestParsedFooterCacheContract covers the decoded-footer cache, reached
// through Objects: store and hit, Put/Delete invalidation, and the
// requirement that an Object of a replaced version neither serves nor
// stores a footer.
func TestParsedFooterCacheContract(t *testing.T) {
	inner := objstore.NewMemory()
	c := New(inner, Config{})
	type footer struct{ id int }
	footerOf := func(o objstore.Object) (any, bool) { return o.(objstore.FooterCacher).ParsedFooter() }
	store := func(o objstore.Object, f any) { o.(objstore.FooterCacher).StoreParsedFooter(f) }

	if _, err := c.Open("ghost"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("Open(ghost) err = %v, want ErrNotFound", err)
	}
	data := bytes.Repeat([]byte{7}, 1024)
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	o := open(t, c, "k")
	if _, ok := footerOf(o); ok {
		t.Fatal("a fresh entry served a footer")
	}
	f1 := &footer{id: 1}
	store(o, f1)
	got, ok := footerOf(open(t, c, "k"))
	if !ok || got.(*footer) != f1 {
		t.Fatalf("parsed footer roundtrip failed: %v %v", got, ok)
	}
	if c.Stats().ParsedFooterHits != 1 {
		t.Fatalf("ParsedFooterHits = %d, want 1", c.Stats().ParsedFooterHits)
	}

	// A rewrite through the store drops the entry: the old version's
	// Object neither serves its footer nor stores one for the new version.
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, ok := footerOf(o); ok {
		t.Fatal("an Object of the replaced version served its footer")
	}
	store(o, &footer{id: 2})
	cur := open(t, c, "k")
	if _, ok := footerOf(cur); ok {
		t.Fatal("Put did not invalidate the parsed footer, or a replaced version stored one")
	}

	// Store through the current version, then Delete must invalidate too.
	store(cur, &footer{id: 3})
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := footerOf(cur); ok {
		t.Fatal("Delete did not invalidate the parsed footer")
	}
}

// TestCacheObjectReadsAreLookups: every read of one Object is a block
// lookup of its own, so reading the same range three times reports a miss
// (the Head and the block fetch), then two hits, and the cache's Stats
// agree.
func TestCacheObjectReadsAreLookups(t *testing.T) {
	mem := objstore.NewMemory()
	if err := mem.Put("k", blob(8<<10)); err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{Store: mem}
	c := New(cs, Config{})
	o := open(t, c, "k")
	defer o.Close()
	for i, want := range []bool{false, true, true} {
		got, err := o.ReadRange(100, 4096, nil)
		if err != nil || !bytes.Equal(got, blob(8 << 10)[100:4196]) {
			t.Fatalf("read %d: %v", i, err)
		}
		if hit := o.(objstore.HitReporter).Hit(); hit != want {
			t.Fatalf("read %d: hit %v, want %v", i, hit, want)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 || st.BytesFromCache != 2*4096 {
		t.Fatalf("stats %+v, want 1 miss, 2 hits of 4096 B", st)
	}
	if cs.heads.Load() != 1 || cs.gets.Load() != 1 {
		t.Fatalf("store saw %d heads and %d gets, want 1 and 1", cs.heads.Load(), cs.gets.Load())
	}
}

// TestReadRangeCachedIntoBuffer: an Object's read copies into the caller's
// buffer when its capacity suffices and into a new slice when it does not,
// and counts inner GETs, hits, misses and bytes exactly as GetRangeCached
// does.
func TestReadRangeCachedIntoBuffer(t *testing.T) {
	data := blob(600 << 10)
	ranges := [][2]int64{{0, 8}, {250 << 10, 20 << 10}, {600<<10 - 100<<10, -1}}
	// run reads every range cold, then warm, and returns the cache's
	// counters and the GETs that reached the store.
	run := func(read func(c *CachingStore, off, length int64) ([]byte, bool, error)) (Stats, int64) {
		mem := objstore.NewMemory()
		if err := mem.Put("k", data); err != nil {
			t.Fatal(err)
		}
		cs := &countingStore{Store: mem}
		c := New(cs, Config{})
		for pass := 0; pass < 2; pass++ {
			for _, r := range ranges {
				want := data[r[0]:]
				if r[1] >= 0 {
					want = want[:r[1]]
				}
				got, hit, err := read(c, r[0], r[1])
				if err != nil || hit != (pass == 1) || !bytes.Equal(got, want) {
					t.Fatalf("pass %d range %v: hit %v, err %v, bytes equal %v", pass, r, hit, err, bytes.Equal(got, want))
				}
			}
		}
		return c.Stats(), cs.gets.Load()
	}
	buf := make([]byte, 64<<10)
	intoBuf := func(c *CachingStore, off, length int64) ([]byte, bool, error) {
		o := open(t, c, "k")
		defer o.Close()
		got, err := o.ReadRange(off, length, buf)
		if fits := length >= 0 && length <= int64(cap(buf)); err == nil && fits != (&got[0] == &buf[0]) {
			t.Fatalf("range [%d,+%d) into a %d-byte buffer: landed in it %v, want %v", off, length, cap(buf), !fits, fits)
		}
		return got, err == nil && o.(objstore.HitReporter).Hit(), err
	}
	fresh := func(c *CachingStore, off, length int64) ([]byte, bool, error) {
		return c.GetRangeCached("k", off, length)
	}
	gotStats, gotGets := run(intoBuf)
	wantStats, wantGets := run(fresh)
	if gotStats != wantStats || gotGets != wantGets {
		t.Fatalf("into a buffer: %+v and %d GETs; fresh: %+v and %d GETs", gotStats, gotGets, wantStats, wantGets)
	}
}
