package objstore

// Object is one opened object: any number of ranged reads of the version
// that was current when it was opened, until Close. A scan opens each file
// once and reads its tail, footer and every chunk through the one Object,
// so a read costs the read itself rather than an open, a stat and a close.
type Object interface {
	// ReadRange returns length bytes starting at off; a negative length
	// reads to the end, as in Store.GetRange. It may read into buf's
	// backing array, growing it when too small, and return that; a caller
	// that reuses one buffer passes back what the previous read returned.
	// It writes into no memory other than buf and its own allocations.
	ReadRange(off, length int64, buf []byte) ([]byte, error)
	// Close releases the object. No read may start after it.
	Close() error
}

// FooterCacher is implemented by an Object whose store keeps one parsed
// pixfile footer per object version — the version this Object opened —
// so a reader that reopens the file skips the footer reads and the parse.
// The value is opaque to the store and must be immutable: any number of
// readers share it. Only a footer that parsed may be stored, and readers
// keep billing the footer bytes on a hit.
type FooterCacher interface {
	ParsedFooter() (footer any, ok bool)
	StoreParsedFooter(footer any)
}

// Opener is implemented by stores that can open an object for many reads.
// Opening is not a request: a metering store counts each ReadRange as one
// GET, exactly as if it were a GetRange.
type Opener interface {
	Open(key string) (Object, error)
}

// OpenObject opens key on s: the store's own Object when s is an Opener,
// otherwise an adapter that issues one GetRange per read. Stores that must
// see every read as a request of their own — a FaultStore's per-request
// fault draws, a read cache's block lookups — are reached through the
// adapter by not implementing Opener.
func OpenObject(s Store, key string) (Object, error) {
	if o, ok := s.(Opener); ok {
		return o.Open(key)
	}
	return rangeObject{s: s, key: key}, nil
}

// rangeObject is the Object of a store that is not an Opener.
type rangeObject struct {
	s   Store
	key string
}

func (o rangeObject) ReadRange(off, length int64, _ []byte) ([]byte, error) {
	return o.s.GetRange(o.key, off, length)
}

func (rangeObject) Close() error { return nil }
