package objstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a Store backed by a local directory. Keys map to files under the
// root, with '/' in keys becoming directory separators. It is the store of
// every DB opened with a DataDir — the REST server's persistent tables,
// the CF worker processes that read base tables and write intermediates
// under the same root, and the performance harness — while the simulators
// and most tests use Memory. A Put writes a temporary file and renames it
// over the key, so a reader in any process sees the old object or the new
// one, never a mix.
//
// A Disk keeps the parsed footers its Objects store (FooterCacher), each
// for the version of its key the storing Object opened: the file, size and
// modification time its fstat saw. A Put or Delete through this Disk drops
// the key's entry, and a rename-replace by another process is a new file.
type Disk struct {
	root    string
	mu      sync.RWMutex          // also guards footers
	footers map[string]diskFooter // at most maxFooters; a full map is emptied
}

const maxFooters = 4096

type diskFooter struct {
	fi     fs.FileInfo
	footer any
}

// NewDisk returns a store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	return &Disk{root: dir, footers: make(map[string]diskFooter)}, nil
}

func (d *Disk) path(key string) (string, error) {
	if key == "" {
		return "", errors.New("objstore: empty key")
	}
	clean := filepath.Clean(filepath.FromSlash(key))
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(d.root, clean), nil
}

// Put implements Store.
func (d *Disk) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp := p + ".tmp"
	// A Delete in another process prunes empty directories and can remove
	// ours between MkdirAll and the write (ENOENT), or inside MkdirAll
	// between its mkdir finding a directory there and its check of it
	// (EEXIST): create it again. Each retry needs that process to prune
	// again; the bound only stops a loop.
	for try := 0; try < 64; try++ {
		if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
			err = os.WriteFile(tmp, data, 0o644)
		}
		if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, fs.ErrExist) {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("objstore: put %s: %w", key, err)
	}
	delete(d.footers, key)
	return nil
}

// Get implements Store.
func (d *Disk) Get(key string) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// GetRange implements Store: Open, one read of exactly the range, Close.
// Of the ~15.6 µs such a call cost an uncached scan per chunk, 8.2 µs were
// open + fstat + close and 4.9 µs the fresh zeroed buffer, against 2.1 µs
// for the pread itself (2-vCPU Intel Xeon, Go 1.24) — so a scan does not
// call it per chunk: it opens each file once and reads every chunk through
// that Object into one reused buffer.
func (d *Disk) GetRange(key string, off, length int64) ([]byte, error) {
	o, err := d.Open(key)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	return o.ReadRange(off, length, nil)
}

// Open implements Opener: one open + fstat under the read lock. The
// descriptor stays on the version of key that was current at Open — a Put
// renames a new file over the key, here or in a CF worker process writing
// into the same root — so an Object reads one whole version, never a mix.
// Its holder closes it; a scan holds it only while it reads that file, so
// no descriptor outlives its scan.
func (d *Disk) Open(key string) (Object, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	f, err := os.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &diskObject{d: d, f: f, key: key, fi: fi}, nil
}

// diskObject is an opened Disk file; fi, its fstat at Open, bounds every
// read and identifies the version to the footer cache.
type diskObject struct {
	d   *Disk
	f   *os.File
	key string
	fi  fs.FileInfo
}

// ParsedFooter implements FooterCacher.
func (o *diskObject) ParsedFooter() (any, bool) {
	o.d.mu.RLock()
	defer o.d.mu.RUnlock()
	e, ok := o.d.footers[o.key]
	if !ok || !os.SameFile(e.fi, o.fi) || e.fi.Size() != o.fi.Size() || !e.fi.ModTime().Equal(o.fi.ModTime()) {
		return nil, false
	}
	return e.footer, true
}

// StoreParsedFooter implements FooterCacher.
func (o *diskObject) StoreParsedFooter(footer any) {
	o.d.mu.Lock()
	defer o.d.mu.Unlock()
	if len(o.d.footers) >= maxFooters {
		clear(o.d.footers)
	}
	o.d.footers[o.key] = diskFooter{fi: o.fi, footer: footer}
}

// ReadRange implements Object with one positioned read of exactly the
// range, into buf when it is large enough.
func (o *diskObject) ReadRange(off, length int64, buf []byte) ([]byte, error) {
	end, err := rangeEnd(o.fi.Size(), off, length, o.key)
	if err != nil {
		return nil, err
	}
	n := int(end - off)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := o.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("objstore: get range %s: %w", o.key, err)
	}
	return buf, nil
}

// Close implements Object.
func (o *diskObject) Close() error { return o.f.Close() }

// Head implements Store.
func (d *Disk) Head(key string) (ObjectInfo, error) {
	p, err := d.path(key)
	if err != nil {
		return ObjectInfo{}, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	fi, err := os.Stat(p)
	if errors.Is(err, fs.ErrNotExist) {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err = os.Remove(p)
	delete(d.footers, key)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	// Object stores have no directories; the ones the key's slashes
	// implied are an implementation detail and must not accumulate (the
	// per-query shuffle namespaces would otherwise leave one empty dir
	// each). Stop at the first non-empty parent or the root.
	for dir := filepath.Dir(p); dir != d.root; dir = filepath.Dir(dir) {
		if os.Remove(dir) != nil {
			break
		}
	}
	return nil
}

// List implements Store.
func (d *Disk) List(prefix string) ([]ObjectInfo, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var infos []ObjectInfo
	err := filepath.WalkDir(d.root, func(p string, entry fs.DirEntry, err error) error {
		if err != nil || entry.IsDir() {
			return err
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if !strings.HasPrefix(key, prefix) || strings.HasSuffix(key, ".tmp") {
			return nil
		}
		fi, err := entry.Info()
		if err != nil {
			return err
		}
		infos = append(infos, ObjectInfo{Key: key, Size: fi.Size(), ModTime: fi.ModTime()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}
