package core

import "fastmatch/internal/cst"

// Edge-validation strategies. The kernel's batch rounds probe "is candidate
// ci of O[d] CST-adjacent to the mapped candidate mj of an earlier
// neighbour?" for every generated partial. Run replaces the per-probe binary
// search (Adj.Has, still the oracle the property tests use)
// with one of two membership structures over the *reverse* adjacency view
// Edge(un → u) — by the CST's mirror invariant, ci ∈ N^u_un reverse-maps to
// exactly the same verdict — selected once per check slot at prepare time
// from the candidate-set and adjacency-list sizes:
//
//   - stratGallop: a monotone cursor over rev.Neighbors(mj). Candidates of a
//     partial are consumed in strictly ascending ci order, so the cursor
//     gallops forward (doubling steps + binary search over the bracket) and
//     the whole batch costs O(|revList| + probes·log step) instead of
//     probes·log|fwdList|. The default; wins on skewed lists where the
//     cursor skips long runs. At the last query vertex the kernel walks
//     whichever is shortest of the partial's batch and its gallop slots'
//     reverse lists (each clipped by gallopTo to the batch's ci range);
//     when a reverse list drives, the same cursor probes the batch — the
//     parent's row — in its place.
//   - stratBitset: a per-slot bitset over C(O[d]) marked lazily from
//     rev.Neighbors(mj) and cached across partials (markedMj); each probe is
//     one word test. Selected for high-degree slots, where marking once and
//     probing O(1) beats log-factor searches — the software analogue of the
//     paper's BRAM bitmap probe that motivates δD.
type strategy uint8

const (
	stratGallop strategy = iota
	stratBitset
)

// bitsetMinAvgDeg is the average forward adjacency-list length above which a
// check slot switches from galloping to the bitset: below it, marking a
// whole reverse list per distinct mj costs more than a few cursor steps.
const bitsetMinAvgDeg = 32

// gallopState is one gallop slot's cursor over the pinned reverse list of
// the current partial's mapped candidate.
type gallopState struct {
	rl  []cst.CandIndex
	cur int32
}

// probe reports whether ci is in the reverse list, advancing the cursor
// monotonically (ci must not decrease within a partial's batch). The common
// dense step — the next list entry — stays inline; longer skips gallop.
func (g *gallopState) probe(ci cst.CandIndex) bool {
	rl, cur := g.rl, g.cur
	n := int32(len(rl))
	for steps := 0; cur < n && rl[cur] < ci; steps++ {
		cur++
		if steps == 4 {
			cur = gallopTo(rl, cur, ci)
			break
		}
	}
	g.cur = cur
	return cur < n && rl[cur] == ci
}

// gallopTo advances cur through rl (ascending) to the first position whose
// value is >= target: doubling steps bracket the answer, a binary search
// pins it. Amortised over an ascending probe sequence the cursor visits each
// list position O(1) times.
func gallopTo(rl []cst.CandIndex, cur int32, target cst.CandIndex) int32 {
	i := int(cur)
	n := len(rl)
	if i >= n || rl[i] >= target {
		return cur
	}
	step := 1
	j := i + 1
	for j < n && rl[j] < target {
		i = j
		j += step
		step <<= 1
	}
	if j > n {
		j = n
	}
	lo, hi := i+1, j
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rl[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// bitsetWords returns the number of 64-bit words covering n candidates.
func bitsetWords(n int) int { return (n + 63) / 64 }
