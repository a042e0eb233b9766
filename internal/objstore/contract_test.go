package objstore_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/objstore"
	"repro/internal/objstore/cache"
)

// TestObjectContract checks the Object contract on every store: an Open of
// a missing key is ErrNotFound; ranged reads behave as Object.ReadRange
// says, land in a large enough buffer, and hand out bytes that no later
// read sees changed; and over a Metered, each read of one Object counts as
// one GET while the Open counts none.
func TestObjectContract(t *testing.T) {
	disk := func(t *testing.T) *objstore.Disk {
		d, err := objstore.NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Each case returns the store and the Metered at or beneath it, if any.
	for _, c := range []struct {
		name string
		new  func(t *testing.T) (objstore.Store, *objstore.Metered)
	}{
		{"memory", func(*testing.T) (objstore.Store, *objstore.Metered) { return objstore.NewMemory(), nil }},
		{"disk", func(t *testing.T) (objstore.Store, *objstore.Metered) { return disk(t), nil }},
		{"metered-disk", func(t *testing.T) (objstore.Store, *objstore.Metered) {
			m := objstore.NewMetered(disk(t))
			return m, m
		}},
		{"fault-memory", func(*testing.T) (objstore.Store, *objstore.Metered) {
			return objstore.NewFaultStore(objstore.NewMemory(), objstore.FaultConfig{}), nil
		}},
		{"cache-memory", func(*testing.T) (objstore.Store, *objstore.Metered) {
			return cache.New(objstore.NewMemory(), cache.Config{}), nil
		}},
		{"cache-metered-disk", func(t *testing.T) (objstore.Store, *objstore.Metered) {
			m := objstore.NewMetered(disk(t))
			return cache.New(m, cache.Config{}), m
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, met := c.new(t)
			objectContract(t, s, met)
		})
	}
}

func objectContract(t *testing.T, s objstore.Store, met *objstore.Metered) {
	if _, err := s.Open("missing"); !errors.Is(err, objstore.ErrNotFound) {
		t.Fatalf("Open(missing) err = %v, want ErrNotFound", err)
	}
	const size = 600 << 10 // three 256 KiB cache blocks
	blob := make([]byte, size)
	for i := range blob {
		blob[i] = byte(i*31 + i/7)
	}
	for _, key := range []string{"db/t/f.pxl", "db/t/metered.pxl"} {
		if err := s.Put(key, blob); err != nil {
			t.Fatal(err)
		}
	}
	open := func(key string) objstore.Object {
		t.Helper()
		o, err := s.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	o := open("db/t/f.pxl")
	defer o.Close()
	for _, r := range []struct {
		off, length int64
		want        []byte // nil: the read must fail
	}{
		{7, 8, blob[7:15]},
		{300 << 10, -1, blob[300<<10:]}, // to the end
		{size, 0, []byte{}},             // zero length at the end
		{size, -1, []byte{}},
		{size - 8, 9, nil}, // past the end
		{size + 1, 0, nil}, // offset past the end
		{-1, 2, nil},       // negative offset
		{-1, -1, nil},
	} {
		got, err := o.ReadRange(r.off, r.length, nil)
		if r.want == nil {
			if err == nil {
				t.Errorf("ReadRange(%d, %d) did not fail", r.off, r.length)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, r.want) {
			t.Errorf("ReadRange(%d, %d) = %d bytes, %v; want %d bytes of the object", r.off, r.length, len(got), err, len(r.want))
		}
	}

	buf := make([]byte, 0, 4096)
	got, err := o.ReadRange(250<<10, 4096, buf) // spans two cache blocks
	if err != nil || !bytes.Equal(got, blob[250<<10:250<<10+4096]) {
		t.Fatalf("ReadRange into a buffer: %v", err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("a read into a large enough buffer did not return it")
	}

	for i := range got {
		got[i] ^= 0xA5
	}
	again, err := o.ReadRange(250<<10, 4096, nil)
	if err != nil || !bytes.Equal(again, blob[250<<10:250<<10+4096]) {
		t.Fatalf("a later read of the Object saw the caller's change: %v", err)
	}
	fresh := open("db/t/f.pxl")
	again, err = fresh.ReadRange(250<<10, 4096, nil)
	fresh.Close()
	if err != nil || !bytes.Equal(again, blob[250<<10:250<<10+4096]) {
		t.Fatalf("a new Object saw the caller's change: %v", err)
	}

	if met == nil {
		return
	}
	before := met.Usage()
	m := open("db/t/metered.pxl")
	defer m.Close()
	if u := met.Usage().Sub(before); u.Gets != 0 {
		t.Fatalf("Open counted %d GETs, want none", u.Gets)
	}
	offs := []int64{0, 300 << 10, 550 << 10} // one per cache block
	for _, off := range offs {
		if _, err := m.ReadRange(off, 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	if u := met.Usage().Sub(before); u.Gets != int64(len(offs)) {
		t.Fatalf("%d reads of one Object counted %d GETs, want %d", len(offs), u.Gets, len(offs))
	}
}
