package objstore

import (
	"bytes"
	"errors"
	"testing"
)

// An opened Disk object keeps reading the version it opened: a Put that
// replaces the key renames a new file over it and leaves the descriptor
// on the old one. A fresh GetRange sees the new version.
func TestDiskObjectReadsTheVersionItOpened(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	oldV, newV := bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)
	if err := d.Put("db/t/f.pxl", oldV); err != nil {
		t.Fatal(err)
	}
	o, err := d.Open("db/t/f.pxl")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := d.Put("db/t/f.pxl", newV); err != nil {
		t.Fatal(err)
	}
	got, err := o.ReadRange(100, 200, nil)
	if err != nil || !bytes.Equal(got, oldV[100:300]) {
		t.Fatalf("open object after replace: %v, %v; want the old bytes", got[:1], err)
	}
	got, err = d.GetRange("db/t/f.pxl", 100, 200)
	if err != nil || !bytes.Equal(got, newV[100:300]) {
		t.Fatalf("GetRange after replace: %v, %v; want the new bytes", got[:1], err)
	}
}

// ReadRange reads into buf when it is large enough, grows it when not, and
// bounds every read by the size fstat saw at Open.
func TestDiskObjectReadRange(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, columnar world")
	if err := d.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open(missing) err = %v, want ErrNotFound", err)
	}
	o, err := d.Open("k")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	buf := make([]byte, 0, 64)
	got, err := o.ReadRange(7, 8, buf)
	if err != nil || string(got) != "columnar" {
		t.Fatalf("ReadRange = %q, %v", got, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("ReadRange did not read into a large enough buf")
	}
	got, err = o.ReadRange(7, -1, make([]byte, 2))
	if err != nil || string(got) != "columnar world" {
		t.Fatalf("ReadRange to end into a short buf = %q, %v", got, err)
	}
	for _, r := range [][2]int64{{7, 1000}, {-1, 2}, {int64(len(data)) + 1, 0}} {
		if _, err := o.ReadRange(r[0], r[1], nil); err == nil {
			t.Errorf("ReadRange(%d, %d) out of bounds did not error", r[0], r[1])
		}
	}
}

// Metered counts each read of an opened object as one GET of its bytes,
// and the open itself as no request — the same counts GetRange would give.
func TestMeteredObjectCounts(t *testing.T) {
	for name, inner := range map[string]Store{"disk": mustDisk(t), "memory": NewMemory()} {
		m := NewMetered(inner)
		if err := m.Put("k", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		m.Reset()
		o, err := OpenObject(m, "k")
		if err != nil {
			t.Fatal(err)
		}
		if u := m.Usage(); u != (Usage{}) {
			t.Fatalf("%s: Open counted %+v, want nothing", name, u)
		}
		var buf []byte
		for _, n := range []int64{10, 30, 5} {
			if buf, err = o.ReadRange(0, n, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		if u := m.Usage(); u != (Usage{Gets: 3, BytesRead: 45}) {
			t.Fatalf("%s: three reads counted %+v, want 3 GETs of 45 B", name, u)
		}
	}
}

// A FaultStore must not be an Opener: its fault draws happen per GetRange,
// and a scan reaches a non-Opener through OpenObject's adapter, one
// GetRange per read. An Open of its own would let every read after the
// first bypass the draws, and change the replay of a seeded fault plan.
func TestFaultStoreIsNotAnOpener(t *testing.T) {
	var s Store = NewFaultStore(NewMemory(), FaultConfig{})
	if _, ok := s.(Opener); ok {
		t.Fatal("*FaultStore implements Opener")
	}
}

func mustDisk(t *testing.T) *Disk {
	t.Helper()
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}
