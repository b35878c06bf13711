package cst

import (
	"fastmatch/graph"
	"fastmatch/internal/order"
)

// Enumerator is the CPU-side matcher in the kernel's prepared shape: Reset
// hoists everything a backtracking round touches — per-depth candidate
// arrays, the tree-parent CSR view, the non-tree edge-validation views and
// the matched-position of each — into depth-indexed slices, so Run touches
// contiguous state with no per-call derivation and no allocation (the only
// allocations are the embeddings handed to emit, which callers may retain).
// An Enumerator is single-goroutine state; pool it across calls (the host's
// δ-share drain does) to amortise the buffers.
type Enumerator struct {
	c *CST
	n int

	// Depth-indexed hoists, filled by Reset for the current (CST, order).
	candAt    [][]graph.VertexID // candAt[d] = C(o[d])
	parentAdj []Adj              // d>0: CSR view of Edge(parent(o[d]) → o[d])
	parentPos []int32            // depth at which o[d]'s tree parent was matched
	checkAdj  []Adj              // flattened edge-validation views, grouped by depth
	checkPos  []int32            // matched depth of each check's other endpoint
	checkOff  []int32            // checkOff[d]:checkOff[d+1] indexes checkAdj/checkPos
	posBuf    []int32            // query vertex -> order position

	mIdx  []CandIndex      // candidate index matched at each depth
	mVert []graph.VertexID // data vertex matched at each depth

	o       order.Order
	emit    func(graph.Embedding) bool
	take    func() bool
	count   int64
	stopped bool
}

// Reset prepares the enumerator for (c, o), reusing its buffers. The same
// enumerator can be Reset across CSTs of different queries.
func (e *Enumerator) Reset(c *CST, o order.Order) {
	n := c.Query.NumVertices()
	e.c, e.o, e.n = c, o, n
	if cap(e.candAt) < n {
		e.candAt = make([][]graph.VertexID, n)
		e.parentAdj = make([]Adj, n)
		e.parentPos = make([]int32, n)
		e.checkOff = make([]int32, n+1)
		e.posBuf = make([]int32, n)
		e.mIdx = make([]CandIndex, n)
		e.mVert = make([]graph.VertexID, n)
	}
	e.candAt = e.candAt[:n]
	e.parentAdj = e.parentAdj[:n]
	e.parentPos = e.parentPos[:n]
	e.checkOff = e.checkOff[:n+1]
	e.posBuf = e.posBuf[:n]
	e.mIdx = e.mIdx[:n]
	e.mVert = e.mVert[:n]

	pos := e.posBuf
	for i, u := range o {
		pos[u] = int32(i)
	}
	e.checkAdj = e.checkAdj[:0]
	e.checkPos = e.checkPos[:0]
	t := c.Tree
	for d, u := range o {
		e.candAt[d] = c.Cand[u]
		if d > 0 {
			up := t.Parent[u]
			e.parentAdj[d] = c.Edge(up, u)
			e.parentPos[d] = pos[up]
		}
		e.checkOff[d] = int32(len(e.checkAdj))
		for _, un := range c.Query.Neighbors(u) {
			if un == t.Parent[u] {
				continue // implied by candidate generation
			}
			if int(pos[un]) < d {
				e.checkAdj = append(e.checkAdj, c.Edge(u, un))
				e.checkPos = append(e.checkPos, pos[un])
			}
		}
	}
	e.checkOff[n] = int32(len(e.checkAdj))
}

// Release drops the references into the CST and order last run, keeping
// the buffers, so a pooled or idle Enumerator pins no dead CST.
func (e *Enumerator) Release() {
	e.c, e.o = nil, nil
	clear(e.candAt[:cap(e.candAt)])
	clear(e.parentAdj[:cap(e.parentAdj)])
	clear(e.checkAdj[:cap(e.checkAdj)])
}

// Run backtracks over the prepared CST and invokes emit for every embedding
// it contains, in matching order. If emit returns false, enumeration stops
// early. It returns the number of embeddings found (each found embedding
// counts, including the one a stopping emit refused). A nil emit counts
// without materialising anything.
func (e *Enumerator) Run(emit func(graph.Embedding) bool) int64 {
	e.emit, e.take = emit, nil
	return e.run()
}

// RunCounted is the budgeted count-only drain: take reserves one result
// slot per embedding, enumeration stops at the first refusal, and only
// granted reservations are counted — the δ-share contract of the host's
// runControl.
func (e *Enumerator) RunCounted(take func() bool) int64 {
	e.emit, e.take = nil, take
	return e.run()
}

func (e *Enumerator) run() int64 {
	e.count, e.stopped = 0, false
	if !e.c.IsEmpty() {
		e.rec(0)
	}
	e.emit, e.take = nil, nil
	return e.count
}

// rec is the prepared zero-alloc DFS matcher: per-depth state lives in
// hoisted arrays, so steady-state enumeration performs no allocation except
// materialising an embedding for a collecting emit callback.
//
//fastmatch:hotpath
func (e *Enumerator) rec(depth int) {
	if depth == e.n {
		if e.take != nil {
			if !e.take() {
				e.stopped = true
				return
			}
			e.count++
			return
		}
		e.count++
		if e.emit != nil {
			//fastmatch:nolint hotpathalloc one embedding per emitted match; emit callers own the copy
			em := make(graph.Embedding, e.n)
			for d, u := range e.o {
				em[u] = e.mVert[d]
			}
			if !e.emit(em) {
				e.stopped = true
			}
		}
		return
	}
	cand := e.candAt[depth]
	if depth == 0 {
		for ci := CandIndex(0); int(ci) < len(cand); ci++ {
			e.mIdx[0] = ci
			e.mVert[0] = cand[ci]
			e.rec(1)
			if e.stopped {
				return
			}
		}
		return
	}
	cands := e.parentAdj[depth].Neighbors(e.mIdx[e.parentPos[depth]])
	chkLo, chkHi := e.checkOff[depth], e.checkOff[depth+1]
next:
	for _, ci := range cands {
		v := cand[ci]
		for d := 0; d < depth; d++ { // visited validation
			if e.mVert[d] == v {
				continue next
			}
		}
		for k := chkLo; k < chkHi; k++ { // edge validation
			if !e.checkAdj[k].Has(ci, e.mIdx[e.checkPos[k]]) {
				continue next
			}
		}
		e.mIdx[depth] = ci
		e.mVert[depth] = v
		e.rec(depth + 1)
		if e.stopped {
			return
		}
	}
}

// Enumerate backtracks over the CST following matching order o and invokes
// emit for every embedding of q in G contained in this CST. If emit returns
// false, enumeration stops early. It returns the number of embeddings
// emitted. This is the CPU-side matcher the scheduler uses for the host's
// share of work (Section V-C) and the reference oracle the kernel tests
// compare against; hot paths reuse an Enumerator directly instead of paying
// this wrapper's per-call preparation.
//
// Enumerate only reads the CST — Theorem 1's claim that the CST is a
// complete search space — so running it per partition and unioning results
// is equivalent to running it on the unpartitioned CST.
func Enumerate(c *CST, o order.Order, emit func(graph.Embedding) bool) int64 {
	var e Enumerator
	e.Reset(c, o)
	return e.Run(emit)
}

// Count returns the number of embeddings in the CST without materialising
// them.
func Count(c *CST, o order.Order) int64 {
	return Enumerate(c, o, nil)
}

// CollectAll enumerates and returns every embedding; tests and small
// examples use it. Avoid on large search spaces.
func CollectAll(c *CST, o order.Order) []graph.Embedding {
	var out []graph.Embedding
	Enumerate(c, o, func(e graph.Embedding) bool {
		out = append(out, e)
		return true
	})
	return out
}
