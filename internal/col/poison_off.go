//go:build !poison

package col

// Poison does nothing outside poison builds (see poison_on.go).
func Poison(*Vector) {}
