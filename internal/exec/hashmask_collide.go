//go:build hashcollide

package exec

// hashMask keeps two bits of every key hash, in builds with the hashcollide
// tag only (go test -tags hashcollide). Nearly every pair of keys then
// collides, so the hash tables resolve almost every probe by comparing
// keys, and an equality that misses a key column or a type fails the
// equivalence suites. The direct join layout compares no hash, so
// directJoins is off: every join keeps the hashed table.
const hashMask, directJoins = 3, false
