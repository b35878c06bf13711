package cst

import (
	"fastmatch/graph"
	"fastmatch/internal/order"
)

// Affected-region enumeration for incremental (continuous-query) matching:
// given a CST over one graph epoch and the set of data vertices a delta
// batch touched, enumerate exactly the embeddings that map at least one
// query vertex to a touched ("dirty") vertex — the only embeddings whose
// existence can differ between the epochs, since any embedding avoiding
// every dirty vertex uses only edges both epochs share.
//
// Exactly-once is achieved without dedup by partitioning the affected
// embeddings on u0 := min{u : dirty(em[u])} (minimum over query-vertex
// ids): pass u0 constrains u < u0 to clean candidates, u == u0 to dirty
// ones, and leaves u > u0 free. The passes' outputs are disjoint and their
// union is the affected set.

const (
	classFree int8 = iota
	classMustDirty
	classMustClean
)

// EnumerateAffected invokes emit for every embedding in c that maps at
// least one query vertex to a vertex dirty reports true for, exactly once
// each, and returns how many it found. A pass is skipped outright when u0's
// candidate set contains no dirty vertex, so a batch that misses the
// query's candidate space entirely costs one scan of the candidate arrays
// and no backtracking. Emit may return false to stop early (the refusing
// embedding still counts, matching Enumerate). A nil emit counts only.
func EnumerateAffected(c *CST, o order.Order, dirty func(graph.VertexID) bool, emit func(graph.Embedding) bool) int64 {
	var e Enumerator
	e.Reset(c, o)
	return e.runAffected(dirty, emit)
}

// runAffected runs EnumerateAffected's u0 passes on e, which must be Reset
// to the CST and order; it leaves the filter off, so e can go straight back
// to the static path.
func (e *Enumerator) runAffected(dirty func(graph.VertexID) bool, emit func(graph.Embedding) bool) int64 {
	c := e.c
	if c.IsEmpty() {
		return 0
	}
	n := e.n
	if cap(e.class) < n {
		e.class = make([]int8, n)
	}
	e.class = e.class[:n]
	e.dirty = dirty
	var total int64
	for u0 := 0; u0 < n; u0++ {
		anyDirty := false
		for _, v := range c.Cand[u0] {
			if dirty(v) {
				anyDirty = true
				break
			}
		}
		if !anyDirty {
			continue
		}
		for u := 0; u < n; u++ {
			switch d := e.posBuf[u]; {
			case u < u0:
				e.class[d] = classMustClean
			case u == u0:
				e.class[d] = classMustDirty
			default:
				e.class[d] = classFree
			}
		}
		total += e.Run(emit)
		if e.stopped {
			break
		}
	}
	e.dirty = nil
	return total
}

// CollectAffected returns the affected embeddings as a slice; the
// continuous-query layer and tests use it on delta-sized regions.
func CollectAffected(c *CST, o order.Order, dirty func(graph.VertexID) bool) []graph.Embedding {
	var out []graph.Embedding
	EnumerateAffected(c, o, dirty, func(em graph.Embedding) bool {
		out = append(out, em)
		return true
	})
	return out
}
