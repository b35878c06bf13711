//go:build race

package cst

// poolDropAllowance is what a Partition call may additionally allocate when
// built with the race detector, under which sync.Pool drops a random share
// of Puts on purpose: the worst case is a fresh partitioner, whose scratch
// regrows (60 allocations on the gates' fixtures).
const poolDropAllowance = 80
