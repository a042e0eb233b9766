package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// storeSuite exercises the Store contract against any implementation.
func storeSuite(t *testing.T, s Store) {
	t.Helper()

	// Missing key behaviours.
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Head("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Head(missing) err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("missing"); err != nil {
		t.Errorf("Delete(missing) err = %v, want nil (S3 semantics)", err)
	}

	// Put / Get round trip.
	data := []byte("hello, columnar world")
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get("db/tbl/file-0.pxl")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, err)
	}

	// Overwrite.
	if err := s.Put("db/tbl/file-0.pxl", []byte("v2")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	got, _ = s.Get("db/tbl/file-0.pxl")
	if string(got) != "v2" {
		t.Fatalf("overwrite visible = %q", got)
	}
	if err := s.Put("db/tbl/file-0.pxl", data); err != nil {
		t.Fatal(err)
	}

	// Range reads.
	rng, err := s.GetRange("db/tbl/file-0.pxl", 7, 8)
	if err != nil || string(rng) != "columnar" {
		t.Fatalf("GetRange = %q, %v", rng, err)
	}
	rng, err = s.GetRange("db/tbl/file-0.pxl", 7, -1)
	if err != nil || string(rng) != "columnar world" {
		t.Fatalf("GetRange to end = %q, %v", rng, err)
	}
	if _, err := s.GetRange("db/tbl/file-0.pxl", 7, 1000); err == nil {
		t.Errorf("GetRange past end did not error")
	}
	if _, err := s.GetRange("db/tbl/file-0.pxl", -1, 2); err == nil {
		t.Errorf("GetRange negative offset did not error")
	}

	// Head.
	info, err := s.Head("db/tbl/file-0.pxl")
	if err != nil || info.Size != int64(len(data)) {
		t.Fatalf("Head = %+v, %v", info, err)
	}

	// List with prefix, sorted.
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
	if infos[0].Key != "db/tbl/file-0.pxl" || infos[1].Key != "db/tbl/file-1.pxl" {
		t.Fatalf("List order wrong: %v", infos)
	}

	// Delete removes.
	if err := s.Delete("db/tbl/file-1.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("db/tbl/file-1.pxl"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted key still present")
	}

	// Empty key rejected.
	if err := s.Put("", []byte("x")); err == nil {
		t.Errorf("Put with empty key accepted")
	}

	// Mutating the returned buffer must not corrupt the store.
	got, _ = s.Get("db/tbl/file-0.pxl")
	for i := range got {
		got[i] = 0
	}
	got2, _ := s.Get("db/tbl/file-0.pxl")
	if !bytes.Equal(got2, data) {
		t.Errorf("store corrupted by caller mutation")
	}
}

func TestMemoryStore(t *testing.T) { storeSuite(t, NewMemory()) }

func TestDiskStore(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeSuite(t, d)
}

func TestMeteredStore(t *testing.T) {
	m := NewMetered(NewMemory())
	storeSuite(t, m)
}

func TestDiskRejectsTraversal(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("../evil", []byte("x")); err == nil {
		t.Fatalf("path traversal accepted")
	}
	if err := d.Put("/abs", []byte("x")); err == nil {
		t.Fatalf("absolute key accepted")
	}
}

// Deleting the last object under a key prefix must not leave the empty
// directories the key's slashes implied — one swept per-query shuffle
// namespace would otherwise accumulate one empty dir per query.
func TestDiskDeletePrunesEmptyDirs(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	keep := "db/tbl/file-0.pxl"
	if err := d.Put(keep, []byte("k")); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"_intermediate/q-1/part-0.a0.pxl", "_intermediate/q-1/part-1.a0.pxl"} {
		if err := d.Put(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting one of two objects keeps the shared parent.
	if err := d.Delete("_intermediate/q-1/part-0.a0.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "_intermediate", "q-1")); err != nil {
		t.Fatalf("shared parent removed early: %v", err)
	}
	// Deleting the last one prunes q-1 and _intermediate but not the root.
	if err := d.Delete("_intermediate/q-1/part-1.a0.pxl"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "_intermediate")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty _intermediate dir left behind: %v", err)
	}
	if _, err := d.Get(keep); err != nil {
		t.Fatalf("unrelated object lost: %v", err)
	}
}

// TestDiskPutSurvivesSiblingDelete runs two Disk values on one root, as a
// CF worker process and the coordinator do: each Puts into its own query
// namespace under _intermediate/ and Deletes what it wrote, so each
// Delete's pruning of empty directories can land between the other's
// directory creation and its write. Every Put must succeed.
func TestDiskPutSurvivesSiblingDelete(t *testing.T) {
	root := t.TempDir()
	const rounds = 3000
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []error
	for w := 0; w < 2; w++ {
		d, err := NewDisk(root)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("%sq-%d/part-%d.a0.pxl", IntermediateRoot, w, i)
				if err := d.Put(key, []byte("x")); err != nil {
					mu.Lock()
					failed = append(failed, err)
					mu.Unlock()
					continue
				}
				if err := d.Delete(key); err != nil {
					t.Errorf("delete %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(failed) > 0 {
		t.Fatalf("%d of %d Puts failed beside a concurrent Delete; first: %v", len(failed), 2*rounds, failed[0])
	}
}

func TestMeteredCounts(t *testing.T) {
	m := NewMetered(NewMemory())
	if err := m.Put("a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.GetRange("a", 0, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Head("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.List(""); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// Failed request should not count.
	if _, err := m.Get("missing"); err == nil {
		t.Fatal("expected miss")
	}
	u := m.Usage()
	want := Usage{Gets: 2, Puts: 1, Heads: 1, Lists: 1, Deletes: 1, BytesRead: 140, BytesWritten: 100}
	if u != want {
		t.Fatalf("Usage = %+v, want %+v", u, want)
	}
	m.Reset()
	if m.Usage() != (Usage{}) {
		t.Fatalf("Reset did not zero: %+v", m.Usage())
	}
}

func TestUsageAddSub(t *testing.T) {
	a := Usage{Gets: 3, Puts: 1, BytesRead: 100}
	b := Usage{Gets: 1, BytesRead: 40, BytesWritten: 7}
	sum := a.Add(b)
	if sum.Gets != 4 || sum.BytesRead != 140 || sum.BytesWritten != 7 || sum.Puts != 1 {
		t.Fatalf("Add = %+v", sum)
	}
	if d := sum.Sub(b); d != a {
		t.Fatalf("Sub = %+v, want %+v", d, a)
	}
}

func TestMemoryConcurrentAccess(t *testing.T) {
	m := NewMetered(NewMemory())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k/%d/%d", g, i)
				if err := m.Put(key, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	infos, err := m.List("k/")
	if err != nil || len(infos) != 400 {
		t.Fatalf("List after concurrency = %d objects, %v", len(infos), err)
	}
	u := m.Usage()
	if u.Puts != 400 || u.Gets != 400 {
		t.Fatalf("usage after concurrency: %+v", u)
	}
}

// TestParallelGetRange exercises every backend under concurrent ranged
// reads of shared and private keys — the access pattern of parallel
// VM-side workers — and verifies served bytes. Run with -race.
func TestParallelGetRange(t *testing.T) {
	const n = 64 << 10
	blob := make([]byte, n)
	for i := range blob {
		blob[i] = byte(i*31 + i/7)
	}
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]Store{
		"memory":  NewMemory(),
		"disk":    disk,
		"metered": NewMetered(NewMemory()),
	}
	for name, s := range backends {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("shared", blob); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					key := "shared"
					if g%2 == 1 { // half the readers use a private key
						key = fmt.Sprintf("own/%d", g)
						if err := s.Put(key, blob); err != nil {
							t.Error(err)
							return
						}
					}
					for i := 0; i < 64; i++ {
						off := int64((g*997 + i*8191) % (n - 512))
						got, err := s.GetRange(key, off, 512)
						if err != nil || !bytes.Equal(got, blob[off:off+512]) {
							t.Errorf("g%d read %s@%d: %v", g, key, off, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestRangeReadProperty is a differential over Memory and Disk: every
// ranged read, in bounds or not, returns identical bytes (the blob's) on
// both, or the same error on both.
func TestRangeReadProperty(t *testing.T) {
	const size = 1024
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory()
	blob := make([]byte, size)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	for _, s := range []Store{mem, disk} {
		if err := s.Put("blob", blob); err != nil {
			t.Fatal(err)
		}
	}
	same := func(off, length int64) error {
		m, merr := mem.GetRange("blob", off, length)
		d, derr := disk.GetRange("blob", off, length)
		switch {
		case merr != nil || derr != nil:
			if merr == nil || derr == nil || merr.Error() != derr.Error() {
				return fmt.Errorf("GetRange(%d, %d): memory err %v, disk err %v", off, length, merr, derr)
			}
			return nil
		case !bytes.Equal(m, d):
			return fmt.Errorf("GetRange(%d, %d): memory and disk bytes differ", off, length)
		}
		end := int64(size)
		if length >= 0 {
			end = off + length
		}
		if !bytes.Equal(d, blob[off:end]) {
			return fmt.Errorf("GetRange(%d, %d): bytes are not the blob's", off, length)
		}
		return nil
	}
	edges := [][2]int64{
		{0, size}, {0, -1}, {size - 1, 1}, {7, -1},
		{size, 0}, {size, -1}, // empty range at the very end
		{size, 1}, {size + 1, 0}, {size - 8, 9}, // past the end
		{-1, 2}, {-1, -1}, // negative offset
	}
	for _, e := range edges {
		if err := same(e[0], e[1]); err != nil {
			t.Error(err)
		}
	}
	// Offsets and lengths drawn to land in and out of bounds.
	f := func(off, length int16) bool {
		err := same(int64(off)%(size+64), int64(length)%(size+64))
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	for _, s := range []Store{mem, disk} {
		if err := s.Delete("blob"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.GetRange("blob", 0, 1); !errors.Is(err, ErrNotFound) {
			t.Errorf("%T GetRange after Delete: err = %v, want ErrNotFound", s, err)
		}
	}
}

// procReadChars returns this process's rchar (bytes read through read
// system calls, pread included) from /proc/self/io; ok is false where the
// file cannot be read.
func procReadChars() (n int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, found := strings.CutPrefix(line, "rchar:"); found {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// A 64 KiB range of a 4 MiB object must cost about 64 KiB: in heap
// allocated and in bytes the kernel reads.
func TestDiskGetRangeReadsOnlyTheRange(t *testing.T) {
	const (
		objSize = 4 << 20
		rng     = 64 << 10
		calls   = 32
	)
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, objSize)
	for i := range blob {
		blob[i] = byte(i*7 + i>>12)
	}
	if err := d.Put("t/file.pxl", blob); err != nil {
		t.Fatal(err)
	}
	offset := func(i int) int64 { return int64(i*(objSize/calls)) + int64(i) }

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := d.GetRange("t/file.pxl", offset(i), rng); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 2*rng {
		t.Errorf("GetRange allocated %d B per %d B range, want < %d", perCall, rng, 2*rng)
	}

	r0, ok := procReadChars()
	if !ok {
		t.Skip("/proc/self/io unreadable; read-amplification half skipped")
	}
	var returned int64
	for i := 0; i < calls; i++ {
		got, err := d.GetRange("t/file.pxl", offset(i), rng)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blob[offset(i):offset(i)+rng]) {
			t.Fatalf("range %d: wrong bytes", i)
		}
		returned += int64(len(got))
	}
	r1, _ := procReadChars()
	if read := r1 - r0; float64(read) > 1.1*float64(returned) {
		t.Errorf("kernel read %d B to return %d B (%.1fx), want <= 1.1x", read, returned, float64(read)/float64(returned))
	}
}

// Readers of one Disk race a writer replacing the object through another
// Disk over the same root — the shape of a CF worker process writing into
// the coordinator's DataDir, with no lock in common. Every read must see
// one whole version: Put renames, so a reader's open file is either the
// old object or the new one.
func TestDiskGetRangeDuringReplace(t *testing.T) {
	const (
		size     = 256 << 10
		versions = 64
	)
	root := t.TempDir()
	reader, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	writer, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	if err := writer.Put("k", fill(0)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := int64((g*4099 + i*8191) % (size / 2))
				got, err := reader.GetRange("k", off, size/2)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if n := bytes.Count(got, got[:1]); n != len(got) {
					t.Errorf("reader %d: torn read, %d of %d bytes are 0x%02x", g, n, len(got), got[0])
					return
				}
			}
		}(g)
	}
	for v := 1; v <= versions; v++ {
		if err := writer.Put("k", fill(byte(v))); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
