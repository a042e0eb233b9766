package objstore

import "sync/atomic"

// Usage is a snapshot of object-storage activity, in the units that
// object-storage billing uses (requests and bytes).
type Usage struct {
	Gets         int64 // GET and ranged GET requests
	Puts         int64 // PUT requests
	Heads        int64 // HEAD requests
	Lists        int64 // LIST requests
	Deletes      int64 // DELETE requests
	BytesRead    int64 // bytes returned by GET/GetRange
	BytesWritten int64 // bytes accepted by PUT
}

// Add returns the component-wise sum of two usages.
func (u Usage) Add(o Usage) Usage {
	return Usage{
		Gets:         u.Gets + o.Gets,
		Puts:         u.Puts + o.Puts,
		Heads:        u.Heads + o.Heads,
		Lists:        u.Lists + o.Lists,
		Deletes:      u.Deletes + o.Deletes,
		BytesRead:    u.BytesRead + o.BytesRead,
		BytesWritten: u.BytesWritten + o.BytesWritten,
	}
}

// Sub returns u - o; used to compute per-query deltas between snapshots.
func (u Usage) Sub(o Usage) Usage {
	return Usage{
		Gets:         u.Gets - o.Gets,
		Puts:         u.Puts - o.Puts,
		Heads:        u.Heads - o.Heads,
		Lists:        u.Lists - o.Lists,
		Deletes:      u.Deletes - o.Deletes,
		BytesRead:    u.BytesRead - o.BytesRead,
		BytesWritten: u.BytesWritten - o.BytesWritten,
	}
}

// Metered wraps a Store and accounts every request. It is the hook through
// which the billing subsystem observes "data scanned".
type Metered struct {
	inner Store

	gets, puts, heads, lists, deletes atomic.Int64
	bytesRead, bytesWritten           atomic.Int64
}

// NewMetered wraps inner with request/byte accounting.
func NewMetered(inner Store) *Metered { return &Metered{inner: inner} }

// Inner returns the wrapped store.
func (m *Metered) Inner() Store { return m.inner }

// Usage returns the cumulative usage since construction (or the last Reset).
func (m *Metered) Usage() Usage {
	return Usage{
		Gets:         m.gets.Load(),
		Puts:         m.puts.Load(),
		Heads:        m.heads.Load(),
		Lists:        m.lists.Load(),
		Deletes:      m.deletes.Load(),
		BytesRead:    m.bytesRead.Load(),
		BytesWritten: m.bytesWritten.Load(),
	}
}

// Reset zeroes the cumulative counters.
func (m *Metered) Reset() {
	m.gets.Store(0)
	m.puts.Store(0)
	m.heads.Store(0)
	m.lists.Store(0)
	m.deletes.Store(0)
	m.bytesRead.Store(0)
	m.bytesWritten.Store(0)
}

// Put implements Store.
func (m *Metered) Put(key string, data []byte) error {
	err := m.inner.Put(key, data)
	if err == nil {
		m.puts.Add(1)
		m.bytesWritten.Add(int64(len(data)))
	}
	return err
}

// Get implements Store.
func (m *Metered) Get(key string) ([]byte, error) {
	data, err := m.inner.Get(key)
	if err == nil {
		m.gets.Add(1)
		m.bytesRead.Add(int64(len(data)))
	}
	return data, err
}

// GetRange implements Store.
func (m *Metered) GetRange(key string, off, length int64) ([]byte, error) {
	data, err := m.inner.GetRange(key, off, length)
	if err == nil {
		m.gets.Add(1)
		m.bytesRead.Add(int64(len(data)))
	}
	return data, err
}

// Open implements Opener over the inner store's Object (see OpenObject).
// Opening is not a request; each ReadRange counts one GET and its bytes,
// exactly as a GetRange would.
func (m *Metered) Open(key string) (Object, error) {
	o, err := OpenObject(m.inner, key)
	if err != nil {
		return nil, err
	}
	return &meteredObject{m: m, inner: o}, nil
}

type meteredObject struct {
	m     *Metered
	inner Object
}

func (o *meteredObject) ReadRange(off, length int64, buf []byte) ([]byte, error) {
	data, err := o.inner.ReadRange(off, length, buf)
	if err == nil {
		o.m.gets.Add(1)
		o.m.bytesRead.Add(int64(len(data)))
	}
	return data, err
}

func (o *meteredObject) Close() error { return o.inner.Close() }

// Head implements Store.
func (m *Metered) Head(key string) (ObjectInfo, error) {
	info, err := m.inner.Head(key)
	if err == nil {
		m.heads.Add(1)
	}
	return info, err
}

// Delete implements Store.
func (m *Metered) Delete(key string) error {
	err := m.inner.Delete(key)
	if err == nil {
		m.deletes.Add(1)
	}
	return err
}

// List implements Store.
func (m *Metered) List(prefix string) ([]ObjectInfo, error) {
	infos, err := m.inner.List(prefix)
	if err == nil {
		m.lists.Add(1)
	}
	return infos, err
}

var _ Store = (*Metered)(nil)
var _ Store = (*Memory)(nil)
var _ Store = (*Disk)(nil)
var _ Opener = (*Metered)(nil)
var _ Opener = (*Disk)(nil)
