package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
)

// Fingerprint digests a bound plan into a stable identity string. Two
// plans share a fingerprint iff they execute the same operator tree over
// the same tables — the digest covers the database, every operator label
// (which renders columns, filters, keys and limits) and the tree shape.
// It deliberately excludes physical layout (file lists): the result cache
// pairs the fingerprint with table generations, which change whenever
// layout does.
func Fingerprint(db string, n Node) string {
	h := sha256.New()
	io.WriteString(h, db)
	fingerprintInto(h, n)
	return hex.EncodeToString(h.Sum(nil))
}

func fingerprintInto(w io.Writer, n Node) {
	io.WriteString(w, "\x01")
	io.WriteString(w, n.Label())
	for _, c := range n.Children() {
		fingerprintInto(w, c)
	}
	io.WriteString(w, "\x02")
}
