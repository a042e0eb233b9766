//go:build hashcollide

package exec

// hashMask keeps two bits of every key hash, in builds with the hashcollide
// tag only (go test -tags hashcollide). Nearly every pair of keys then
// collides, so the hash tables resolve almost every probe by comparing
// keys, and an equality that misses a key column or a type fails the
// equivalence suites.
const hashMask = 3
