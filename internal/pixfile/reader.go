package pixfile

import (
	"fmt"
	"hash/crc32"

	"repro/internal/col"
)

// RangeReader fetches a byte range of the underlying object. It is the only
// I/O dependency of the reader, so files can live in any object store.
type RangeReader func(off, length int64) ([]byte, error)

// File is an opened pixfile. Chunk data is fetched lazily per read, so a
// projection of k columns over g selected row groups costs exactly the
// bytes of those k×g chunks (plus the footer).
type File struct {
	fetch  RangeReader
	size   int64
	footer *Footer

	footerBytes int64 // billed size of the footer region (tail + footer)
	bytesRead   int64
}

// Open reads the footer of a file of the given size via fetch.
func Open(fetch RangeReader, size int64) (*File, error) {
	const tailLen = 8 // footer length u32 + magic
	if size < int64(len(magic))+tailLen {
		return nil, fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	tail, err := fetch(size-tailLen, tailLen)
	if err != nil {
		return nil, fmt.Errorf("pixfile: read tail: %w", err)
	}
	if string(tail[4:]) != magic {
		return nil, fmt.Errorf("%w: bad tail magic %q", ErrCorrupt, tail[4:])
	}
	r := newRdr(tail)
	footerLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	footerStart := size - tailLen - int64(footerLen)
	if footerStart < int64(len(magic)) {
		return nil, fmt.Errorf("%w: footer length %d out of bounds", ErrCorrupt, footerLen)
	}
	fp, err := fetch(footerStart, int64(footerLen))
	if err != nil {
		return nil, fmt.Errorf("pixfile: read footer: %w", err)
	}
	footer, err := readFooter(fp, footerStart)
	if err != nil {
		return nil, err
	}
	f := &File{fetch: fetch, size: size, footer: footer, footerBytes: tailLen + int64(footerLen)}
	f.bytesRead = f.footerBytes
	return f, nil
}

// OpenWithFooter constructs a File from an already-parsed footer without
// performing any I/O — the reopen path when a parsed-footer cache holds the
// decoded footer for this (key, size). footerBytes must be the billed size
// of the footer region exactly as Open would have fetched it, so BytesRead
// (the billing counter) is identical whether the footer was re-fetched or
// served from cache. The footer must be treated as immutable: it may be
// shared by any number of concurrently open Files.
func OpenWithFooter(fetch RangeReader, size int64, footer *Footer, footerBytes int64) *File {
	return &File{fetch: fetch, size: size, footer: footer, footerBytes: footerBytes, bytesRead: footerBytes}
}

// OpenBytes opens a file held fully in memory.
func OpenBytes(data []byte) (*File, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	return Open(func(off, length int64) ([]byte, error) {
		if off < 0 || off+length > int64(len(data)) {
			return nil, fmt.Errorf("%w: range [%d,%d) out of bounds %d", ErrCorrupt, off, off+length, len(data))
		}
		return data[off : off+length], nil
	}, int64(len(data)))
}

// Schema returns the file schema.
func (f *File) Schema() *col.Schema { return f.footer.Schema }

// Footer exposes the parsed footer so callers can cache it across reopens
// (see OpenWithFooter). It must be treated as immutable.
func (f *File) Footer() *Footer { return f.footer }

// FooterBytes is the billed size of the footer region (tail + footer) as
// fetched by Open.
func (f *File) FooterBytes() int64 { return f.footerBytes }

// NumRows returns the total row count.
func (f *File) NumRows() int64 { return f.footer.NumRows }

// NumRowGroups returns the row-group count.
func (f *File) NumRowGroups() int { return len(f.footer.RowGroups) }

// RowGroup returns metadata for group g.
func (f *File) RowGroup(g int) RowGroupMeta { return f.footer.RowGroups[g] }

// BytesRead reports the total bytes fetched through this File so far
// (footer plus every chunk read). This is the reader-side "data scanned"
// counter used by the billing layer.
func (f *File) BytesRead() int64 { return f.bytesRead }

// ReadColumns materializes the chosen columns of row group g.
func (f *File) ReadColumns(g int, cols []int) (*col.Batch, error) {
	if g < 0 || g >= len(f.footer.RowGroups) {
		return nil, fmt.Errorf("pixfile: row group %d out of range %d", g, len(f.footer.RowGroups))
	}
	vecs := make([]*col.Vector, len(cols))
	for i, c := range cols {
		vec, err := f.ReadColumnChunkVia(f.fetch, g, c, nil)
		if err != nil {
			return nil, err
		}
		f.bytesRead += f.footer.RowGroups[g].Chunks[c].Length
		vecs[i] = vec
	}
	return col.NewBatch(vecs...), nil
}

// ReadColumnChunkVia fetches, verifies and decodes the single column chunk
// (g, c) through an explicit fetcher, leaving the File's own BytesRead
// counter untouched. It is the engine scan's read: the scan's fetcher
// reads through the one object it opened for the file, into a buffer it
// reuses from chunk to chunk, and accounts scanned bytes in the query's
// stats. The decoded vector never aliases the fetched bytes, so the
// fetcher may overwrite them on its next call. A non-nil scratch donates
// reusable decode buffers and owns the result (see ChunkScratch).
func (f *File) ReadColumnChunkVia(fetch RangeReader, g, c int, scratch *ChunkScratch) (*col.Vector, error) {
	payload, err := f.readChunk(fetch, g, c, nil)
	if err != nil {
		return nil, err
	}
	rg := f.footer.RowGroups[g]
	vec, err := decodeVector(f.footer.Schema.Fields[c].Type, rg.Chunks[c].Encoding, payload, rg.NumRows, rg.Chunks[c].Stats.NullCount, scratch)
	if err != nil {
		return nil, fmt.Errorf("pixfile: decode chunk rg=%d col=%d: %w", g, c, err)
	}
	return vec, nil
}

// readChunk checks that chunk (g, c) exists and that sel, when not empty,
// lies within its row group, then fetches the chunk, verifies its CRC and
// returns its decompressed payload.
func (f *File) readChunk(fetch RangeReader, g, c int, sel []int) ([]byte, error) {
	if g < 0 || g >= len(f.footer.RowGroups) {
		return nil, fmt.Errorf("pixfile: row group %d out of range %d", g, len(f.footer.RowGroups))
	}
	rg := f.footer.RowGroups[g]
	if c < 0 || c >= len(rg.Chunks) {
		return nil, fmt.Errorf("pixfile: column %d out of range %d", c, len(rg.Chunks))
	}
	if len(sel) > 0 && (sel[0] < 0 || sel[len(sel)-1] >= rg.NumRows) {
		return nil, fmt.Errorf("pixfile: selection out of range for row group of %d rows", rg.NumRows)
	}
	ch := rg.Chunks[c]
	raw, err := fetch(ch.Offset, ch.Length)
	if err != nil {
		return nil, fmt.Errorf("pixfile: read chunk rg=%d col=%d: %w", g, c, err)
	}
	if crc := crc32.ChecksumIEEE(raw); crc != ch.CRC {
		return nil, fmt.Errorf("%w: CRC mismatch rg=%d col=%d", ErrCorrupt, g, c)
	}
	return decompress(ch.Compression, raw)
}

// ReadAll materializes the whole file (all columns, all groups). Intended
// for tests and small metadata tables.
func (f *File) ReadAll() (*col.Batch, error) {
	all := make([]int, f.footer.Schema.Len())
	for i := range all {
		all[i] = i
	}
	out := col.EmptyBatch(f.footer.Schema)
	for g := range f.footer.RowGroups {
		b, err := f.ReadColumns(g, all)
		if err != nil {
			return nil, err
		}
		out.Append(b)
	}
	return out, nil
}

// CmpOp is a comparison operator used in zone-map predicates.
type CmpOp uint8

// Zone-map comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// ColPredicate is a conjunct "column <op> literal" used to prune row
// groups by their min/max statistics before any chunk bytes are fetched.
type ColPredicate struct {
	Col int
	Op  CmpOp
	Val col.Value
}

// PruneRowGroup reports whether row group g can be skipped because no row
// can satisfy all predicates. It is conservative: false negatives are
// fine, false positives are not.
func (f *File) PruneRowGroup(g int, preds []ColPredicate) bool {
	rg := f.footer.RowGroups[g]
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(rg.Chunks) || p.Val.Null {
			continue
		}
		st := rg.Chunks[p.Col].Stats
		if !st.HasMinMax {
			// All-NULL chunk: no row can satisfy a comparison.
			if st.NullCount == rg.NumRows {
				return true
			}
			continue
		}
		if st.Min.Type != p.Val.Type && !(st.Min.Type.Numeric() && p.Val.Type.Numeric()) {
			continue
		}
		switch p.Op {
		case CmpEQ:
			if p.Val.Compare(st.Min) < 0 || p.Val.Compare(st.Max) > 0 {
				return true
			}
		case CmpLT:
			if st.Min.Compare(p.Val) >= 0 {
				return true
			}
		case CmpLE:
			if st.Min.Compare(p.Val) > 0 {
				return true
			}
		case CmpGT:
			if st.Max.Compare(p.Val) <= 0 {
				return true
			}
		case CmpGE:
			if st.Max.Compare(p.Val) < 0 {
				return true
			}
		case CmpNE:
			// Prunable only if every row equals the literal.
			if st.NullCount == 0 && st.Min.Compare(st.Max) == 0 && st.Min.Compare(p.Val) == 0 {
				return true
			}
		}
	}
	return false
}
