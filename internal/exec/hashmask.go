//go:build !hashcollide

package exec

// hashMask keeps every bit of a key hash (see hashmask_collide.go).
const hashMask = ^uint64(0)
