//go:build !race

package cst

// poolDropAllowance is zero without the race detector: a pooled
// partitioner comes back warm (see race_alloc_test.go).
const poolDropAllowance = 0
