package vec

import "repro/internal/col"

// DictCol is a dictionary-coded string column given apart from its batch:
// the distinct values, one code per row indexing into Dict, and the per-row
// validity mask (nil when no row is null). SelectDict reads it as a
// dictionary-coded col.Vector; it remains for the benchmark harness's
// probe.
type DictCol struct {
	Dict  []string
	Codes []uint32
	Valid []bool
	N     int
}

// selDict translates a per-entry accept set into a selection: a row
// survives when it is non-null and its code's dictionary entry was
// accepted. This is the O(rows) half of every dictionary kernel; the
// per-entry decision (the O(|dict|) half) already happened into accept.
func selDict(ctx *evalCtx, slot int, dc *col.Vector, accept []bool, sel []int) []int {
	out := ctx.s.selBuf(slot)
	codes := dc.Codes
	if dc.Valid == nil {
		for _, i := range sel {
			if accept[codes[i]] {
				out = append(out, i)
			}
		}
		return ctx.s.putSel(slot, out)
	}
	valid := dc.Valid
	for _, i := range sel {
		if valid[i] && accept[codes[i]] {
			out = append(out, i)
		}
	}
	return ctx.s.putSel(slot, out)
}
