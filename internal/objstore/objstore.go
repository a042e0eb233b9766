// Package objstore implements the cloud object storage substrate that
// PixelsDB stores base tables and CF-produced intermediate results in
// (the paper's "cloud object storage, such as AWS S3").
//
// The package provides a Store interface with memory and on-disk backends,
// plus a metering wrapper that accounts requests and bytes the way
// object-storage billing does. Bytes-scanned accounting feeds the
// $/TB-scan prices in internal/billing.
package objstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("objstore: key not found")

// ObjectInfo describes a stored object.
type ObjectInfo struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// Store is the object storage API. Keys are flat strings; "directories"
// are a convention of '/' separators, as in S3.
type Store interface {
	// Put stores data under key, replacing any existing object.
	Put(key string, data []byte) error
	// Get returns the full object.
	Get(key string) ([]byte, error)
	// GetRange returns length bytes starting at off. A negative length
	// means "to the end of the object".
	GetRange(key string, off, length int64) ([]byte, error)
	// Head returns metadata without reading data.
	Head(key string) (ObjectInfo, error)
	// Delete removes the object. Deleting a missing key is not an error,
	// matching S3 semantics.
	Delete(key string) error
	// List returns objects whose keys start with prefix, sorted by key.
	List(prefix string) ([]ObjectInfo, error)
}

// CachedRanger is implemented by stores layered over a read cache (see
// internal/objstore/cache). ReadRangeCached is a ranged read into the
// caller's buffer, as Object.ReadRange: it copies into buf's backing array
// when buf's capacity suffices, so a hit costs the copy and no allocation.
// It also reports whether the read was served entirely from cache, without
// any request to the backing store: the engine attributes per-query cache
// hits and misses from it, while billed bytes-scanned are accounted
// reader-side and are identical either way. The cache also keeps one
// parsed footer per (key, size), dropped when the key is written or
// deleted through the store: the footer cache (FooterCacher) of the files a
// reader reads through it.
type CachedRanger interface {
	ReadRangeCached(key string, off, length int64, buf []byte) (data []byte, hit bool, err error)
	ParsedFooter(key string, size int64) (footer any, ok bool)
	StoreParsedFooter(key string, size int64, footer any)
}

// Memory is an in-memory Store. It is safe for concurrent use.
type Memory struct {
	mu      sync.RWMutex
	objects map[string]memObject
}

type memObject struct {
	data    []byte
	modTime time.Time
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{objects: make(map[string]memObject)}
}

// Put implements Store.
func (m *Memory) Put(key string, data []byte) error {
	if key == "" {
		return errors.New("objstore: empty key")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.objects[key] = memObject{data: cp, modTime: time.Now()}
	m.mu.Unlock()
	return nil
}

// Get implements Store.
func (m *Memory) Get(key string) ([]byte, error) {
	m.mu.RLock()
	obj, ok := m.objects[key]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(obj.data))
	copy(cp, obj.data)
	return cp, nil
}

// GetRange implements Store.
func (m *Memory) GetRange(key string, off, length int64) ([]byte, error) {
	m.mu.RLock()
	obj, ok := m.objects[key]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return sliceRange(obj.data, off, length, key)
}

// Head implements Store.
func (m *Memory) Head(key string) (ObjectInfo, error) {
	m.mu.RLock()
	obj, ok := m.objects[key]
	m.mu.RUnlock()
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return ObjectInfo{Key: key, Size: int64(len(obj.data)), ModTime: obj.modTime}, nil
}

// Delete implements Store.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	delete(m.objects, key)
	m.mu.Unlock()
	return nil
}

// List implements Store.
func (m *Memory) List(prefix string) ([]ObjectInfo, error) {
	m.mu.RLock()
	var infos []ObjectInfo
	for k, obj := range m.objects {
		if strings.HasPrefix(k, prefix) {
			infos = append(infos, ObjectInfo{Key: k, Size: int64(len(obj.data)), ModTime: obj.modTime})
		}
	}
	m.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}

func sliceRange(data []byte, off, length int64, key string) ([]byte, error) {
	end, err := rangeEnd(int64(len(data)), off, length, key)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, end-off)
	copy(cp, data[off:end])
	return cp, nil
}

// rangeEnd validates a GetRange request against an object of the given
// size and returns the exclusive end of the range.
func rangeEnd(size, off, length int64, key string) (int64, error) {
	if off < 0 || off > size {
		return 0, fmt.Errorf("objstore: range offset %d out of bounds for %s (size %d)", off, key, size)
	}
	if length < 0 {
		return size, nil
	}
	if end := off + length; end <= size {
		return end, nil
	}
	return 0, fmt.Errorf("objstore: range [%d,%d) out of bounds for %s (size %d)", off, off+length, key, size)
}
