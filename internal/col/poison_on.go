//go:build poison

package col

import "math"

// Poison overwrites v's values with NaN, huge integers, out-of-range codes
// and junk strings, in builds with the poison tag only (go test -tags
// poison). Producers call it on buffers they take back, so a holder that
// kept a batch past its producer's next call reads garbage. Validity masks
// are left alone: a computed vector may share its input's.
func Poison(v *Vector) {
	if v != nil {
		fill(v.Ints, 0x5A5AA5A55A5AA5A5)
		fill(v.Floats, math.NaN())
		fill(v.Codes, 0xA5A5A5A5)
		fill(v.Strs, "\xa5poisoned\xa5")
		fill(v.Bools, true)
	}
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}
