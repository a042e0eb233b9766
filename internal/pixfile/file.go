package pixfile

import (
	"fmt"
	"hash/crc32"

	"repro/internal/col"
)

// Format constants.
const (
	magic               = "PXL1"
	version             = 1
	DefaultRowGroupSize = 8192 // rows per row group unless overridden
)

// ColumnStats are the per-chunk zone-map statistics.
type ColumnStats struct {
	Min       col.Value // invalid (Type UNKNOWN) when the chunk is all NULL
	Max       col.Value
	NullCount int
	HasMinMax bool
}

// ChunkMeta locates and describes one column chunk.
type ChunkMeta struct {
	Offset      int64
	Length      int64
	Encoding    Encoding
	Compression Compression
	CRC         uint32
	Stats       ColumnStats
}

// RowGroupMeta describes one row group.
type RowGroupMeta struct {
	NumRows int
	Chunks  []ChunkMeta
}

// Footer is the file's self-describing index.
type Footer struct {
	Schema    *col.Schema
	RowGroups []RowGroupMeta
	NumRows   int64
}

// WriterOptions configure the writer.
type WriterOptions struct {
	// RowGroupSize is the number of rows per row group (default
	// DefaultRowGroupSize).
	RowGroupSize int
	// Compression applies second-stage compression to every chunk.
	Compression Compression
}

// Writer builds a pixfile from appended batches.
type Writer struct {
	schema *col.Schema
	opts   WriterOptions

	pending []*col.Vector // buffered rows, one vector per column
	nbuf    int

	body   buf
	footer Footer
}

// NewWriter returns a writer for the given schema.
func NewWriter(schema *col.Schema, opts WriterOptions) *Writer {
	if opts.RowGroupSize <= 0 {
		opts.RowGroupSize = DefaultRowGroupSize
	}
	w := &Writer{schema: schema, opts: opts, footer: Footer{Schema: schema.Clone()}}
	w.body.raw([]byte(magic))
	w.resetPending()
	return w
}

func (w *Writer) resetPending() {
	w.pending = make([]*col.Vector, w.schema.Len())
	for i, f := range w.schema.Fields {
		w.pending[i] = col.NewVector(f.Type, 0)
	}
	w.nbuf = 0
}

// Append buffers a batch, flushing complete row groups.
func (w *Writer) Append(b *col.Batch) error {
	if len(b.Vecs) != w.schema.Len() {
		return fmt.Errorf("pixfile: batch has %d columns, schema has %d", len(b.Vecs), w.schema.Len())
	}
	for c, v := range b.Vecs {
		if v.Type != w.schema.Fields[c].Type {
			return fmt.Errorf("pixfile: column %d type %s, schema wants %s", c, v.Type, w.schema.Fields[c].Type)
		}
	}
	for from := 0; from < b.N; {
		to := min(b.N, from+w.opts.RowGroupSize-w.nbuf)
		for c, v := range b.Vecs {
			w.pending[c].Append(v.Slice(from, to))
		}
		w.nbuf += to - from
		from = to
		if w.nbuf >= w.opts.RowGroupSize {
			if err := w.flushRowGroup(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Writer) flushRowGroup() error {
	if w.nbuf == 0 {
		return nil
	}
	rg := RowGroupMeta{NumRows: w.nbuf}
	for c, vec := range w.pending {
		enc, payload, nulls := encodeVector(vec)
		compressed, err := compress(w.opts.Compression, payload)
		if err != nil {
			return fmt.Errorf("pixfile: compress column %d: %w", c, err)
		}
		meta := ChunkMeta{
			Offset:      int64(len(w.body.b)),
			Length:      int64(len(compressed)),
			Encoding:    enc,
			Compression: w.opts.Compression,
			CRC:         crc32.ChecksumIEEE(compressed),
			Stats:       computeStats(vec, nulls),
		}
		w.body.raw(compressed)
		rg.Chunks = append(rg.Chunks, meta)
	}
	w.footer.RowGroups = append(w.footer.RowGroups, rg)
	w.footer.NumRows += int64(w.nbuf)
	w.resetPending()
	return nil
}

// Finish flushes remaining rows, writes the footer and returns the file
// bytes. The writer must not be used afterwards.
func (w *Writer) Finish() ([]byte, error) {
	if err := w.flushRowGroup(); err != nil {
		return nil, err
	}
	footerStart := len(w.body.b)
	writeFooter(&w.body, &w.footer)
	w.body.u32(uint32(len(w.body.b) - footerStart))
	w.body.raw([]byte(magic))
	return w.body.bytes(), nil
}

// NumRows reports rows appended so far (including buffered ones).
func (w *Writer) NumRows() int64 { return w.footer.NumRows + int64(w.nbuf) }

func computeStats(v *col.Vector, nulls int) ColumnStats {
	st := ColumnStats{NullCount: nulls}
	for i := 0; i < v.N; i++ {
		if v.IsNull(i) {
			continue
		}
		val := v.Value(i)
		if !st.HasMinMax {
			st.Min, st.Max, st.HasMinMax = val, val, true
			continue
		}
		if val.Compare(st.Min) < 0 {
			st.Min = val
		}
		if val.Compare(st.Max) > 0 {
			st.Max = val
		}
	}
	return st
}

func writeFooter(w *buf, f *Footer) {
	w.uvarint(uint64(f.Schema.Len()))
	for _, field := range f.Schema.Fields {
		w.str(field.Name)
		w.u8(uint8(field.Type))
		if field.Nullable {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	w.uvarint(uint64(f.NumRows))
	w.uvarint(uint64(len(f.RowGroups)))
	for _, rg := range f.RowGroups {
		w.uvarint(uint64(rg.NumRows))
		for _, ch := range rg.Chunks {
			w.uvarint(uint64(ch.Offset))
			w.uvarint(uint64(ch.Length))
			w.u8(uint8(ch.Encoding))
			w.u8(uint8(ch.Compression))
			w.u32(ch.CRC)
			w.uvarint(uint64(ch.Stats.NullCount))
			if ch.Stats.HasMinMax {
				w.u8(1)
				writeValue(w, ch.Stats.Min)
				writeValue(w, ch.Stats.Max)
			} else {
				w.u8(0)
			}
		}
	}
}

func readFooter(p []byte, footerStart int64) (*Footer, error) {
	r := newRdr(p)
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ncols > 1<<16 {
		return nil, fmt.Errorf("%w: absurd column count %d", ErrCorrupt, ncols)
	}
	schema := &col.Schema{}
	for i := uint64(0); i < ncols; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		t, err := r.u8()
		if err != nil {
			return nil, err
		}
		nullable, err := r.u8()
		if err != nil {
			return nil, err
		}
		if col.Type(t) == col.UNKNOWN || col.Type(t) > col.TIMESTAMP {
			return nil, fmt.Errorf("%w: column %q of unknown type %d", ErrCorrupt, name, t)
		}
		schema.Fields = append(schema.Fields, col.Field{Name: name, Type: col.Type(t), Nullable: nullable == 1})
	}
	f := &Footer{Schema: schema}
	nrows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	f.NumRows = int64(nrows)
	var rows uint64 // in the row groups read so far
	ngroups, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ngroups > 1<<24 {
		return nil, fmt.Errorf("%w: absurd row-group count %d", ErrCorrupt, ngroups)
	}
	for g := uint64(0); g < ngroups; g++ {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > nrows-rows || n > 1<<31 {
			return nil, fmt.Errorf("%w: row group %d claims %d of %d rows", ErrCorrupt, g, n, nrows)
		}
		rows += n
		rg := RowGroupMeta{NumRows: int(n)}
		for c := uint64(0); c < ncols; c++ {
			var ch ChunkMeta
			off, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			length, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			enc, err := r.u8()
			if err != nil {
				return nil, err
			}
			comp, err := r.u8()
			if err != nil {
				return nil, err
			}
			crc, err := r.u32()
			if err != nil {
				return nil, err
			}
			nullCount, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			hasMM, err := r.u8()
			if err != nil {
				return nil, err
			}
			if nullCount > n || off < uint64(len(magic)) || off > uint64(footerStart) || length > uint64(footerStart)-off {
				return nil, fmt.Errorf("%w: row group %d column %d: chunk [%d,+%d) with %d nulls", ErrCorrupt, g, c, off, length, nullCount)
			}
			ch.Offset, ch.Length = int64(off), int64(length)
			ch.Encoding, ch.Compression, ch.CRC = Encoding(enc), Compression(comp), crc
			ch.Stats.NullCount = int(nullCount)
			if hasMM == 1 {
				ch.Stats.HasMinMax = true
				if ch.Stats.Min, err = readValue(r); err != nil {
					return nil, err
				}
				if ch.Stats.Max, err = readValue(r); err != nil {
					return nil, err
				}
			}
			rg.Chunks = append(rg.Chunks, ch)
		}
		f.RowGroups = append(f.RowGroups, rg)
	}
	if rows != nrows {
		return nil, fmt.Errorf("%w: row groups hold %d rows, the footer %d", ErrCorrupt, rows, nrows)
	}
	return f, nil
}
