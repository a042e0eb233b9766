//go:build !hashcollide

package exec

// hashMask keeps every bit of a key hash, and directJoins lets a dense
// integer join key take the direct layout (see hashmask_collide.go).
const hashMask, directJoins = ^uint64(0), true
