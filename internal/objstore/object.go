package objstore

// Object is one opened object: any number of ranged reads until Close. A
// Memory or Disk Object reads the version that was current when it was
// opened. Every store reads through its Objects; a scan opens each file
// once and reads its tail, footer and every chunk through the one Object.
// Opening is not a request: each ReadRange is one, and a metering store
// counts one GET per read.
//
// An Object serves one reader goroutine; Close may come from another, but
// no read may start after it.
type Object interface {
	// ReadRange returns length bytes starting at off; a negative length
	// reads to the end, and a zero length at the end reads nothing. An
	// offset outside [0, size] or a range past the end is an error. It may
	// read into buf's backing array, growing it when too small, and return
	// that; a caller that reuses one buffer passes back what the previous
	// read returned. It writes into no memory other than buf and its own
	// allocations, and the returned bytes are the caller's: changing them
	// changes no later read.
	ReadRange(off, length int64, buf []byte) ([]byte, error)
	// Close releases the object.
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

// HitReporter is implemented by an Object of a read cache (see
// internal/objstore/cache). Hit reports whether its last successful read
// was served entirely from cache, without any request to the store
// beneath: the engine attributes per-query cache hits and misses from it,
// while billed bytes-scanned are accounted reader-side and are identical
// either way.
type HitReporter interface {
	Hit() bool
}

// GetRange opens key on s, reads [off, off+length) into a fresh slice as
// Object.ReadRange does, and closes the object: one request.
func GetRange(s Store, key string, off, length int64) ([]byte, error) {
	o, err := s.Open(key)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	return o.ReadRange(off, length, nil)
}
