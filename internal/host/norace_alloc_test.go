//go:build !race

package host

// poolDropAllowance is zero without the race detector: a pooled kernel
// Scratch comes back warm (see race_alloc_test.go).
const poolDropAllowance = 0
