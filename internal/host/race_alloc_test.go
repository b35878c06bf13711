//go:build race

package host

// poolDropAllowance is what a Match may additionally allocate per pooled
// kernel Scratch it fetches when built with the race detector, under which
// sync.Pool drops a random share of Puts on purpose: the worst case is a
// fresh Scratch on every fetch, and a kernel run that sizes a fresh
// Scratch allocates 18–26 times on the gates' LDBC plans.
const poolDropAllowance = 30
