// Package order builds query spanning trees and matching orders.
//
// The paper transforms the query graph into a BFS spanning tree t_q
// (Section V-A), classifies the remaining query edges as non-tree edges, and
// derives a matching order O by ordering the root-to-leaf paths of t_q
// (the "path-based method" of Section V-B). Any connected order that lists a
// vertex after its tree parent is legal for the FAST kernel, so this package
// also provides the alternative orders used by the Fig. 15 experiment
// (CFL-like, DAF-like, CECI-like and random connected topological orders).
package order

import (
	"fmt"

	"fastmatch/graph"
)

// Tree is a BFS spanning tree of a query graph. Vertex 'Root' has Parent -1.
// NonTreeEdges lists every query edge absent from the tree, each reported
// once as (u, v) with u appearing in BFS order before v.
type Tree struct {
	Query        *graph.Query
	Root         graph.QueryVertex
	Parent       []graph.QueryVertex   // -1 for root
	Children     [][]graph.QueryVertex // tree children in BFS discovery order
	Level        []int                 // BFS depth, root = 0
	BFSOrder     []graph.QueryVertex   // vertices in BFS discovery order
	NonTreeEdges [][2]graph.QueryVertex
}

// BuildBFSTree constructs the BFS spanning tree of q rooted at root.
func BuildBFSTree(q *graph.Query, root graph.QueryVertex) *Tree {
	n := q.NumVertices()
	t := &Tree{
		Query:    q,
		Root:     root,
		Parent:   make([]graph.QueryVertex, n),
		Children: make([][]graph.QueryVertex, n),
		Level:    make([]int, n),
		BFSOrder: make([]graph.QueryVertex, 0, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
		t.Level[i] = -1
	}
	queue := []graph.QueryVertex{root}
	t.Level[root] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		t.BFSOrder = append(t.BFSOrder, u)
		for _, v := range q.Neighbors(u) {
			if t.Level[v] == -1 && v != root {
				t.Level[v] = t.Level[u] + 1
				t.Parent[v] = u
				t.Children[u] = append(t.Children[u], v)
				queue = append(queue, v)
			}
		}
	}
	// Classify non-tree edges: every query edge that is not a parent link.
	pos := make([]int, n)
	for i, u := range t.BFSOrder {
		pos[u] = i
	}
	for _, u := range t.BFSOrder {
		for _, v := range q.Neighbors(u) {
			if t.Parent[v] == u || t.Parent[u] == v {
				continue
			}
			if pos[u] < pos[v] {
				t.NonTreeEdges = append(t.NonTreeEdges, [2]graph.QueryVertex{u, v})
			}
		}
	}
	return t
}

// IsTreeEdge reports whether (u,v) is a parent-child link in the tree.
func (t *Tree) IsTreeEdge(u, v graph.QueryVertex) bool {
	return t.Parent[u] == v || t.Parent[v] == u
}

// NonTreeNeighbors returns the non-tree neighbours of u (query neighbours
// that are neither its parent nor its children in the tree).
func (t *Tree) NonTreeNeighbors(u graph.QueryVertex) []graph.QueryVertex {
	var out []graph.QueryVertex
	for _, v := range t.Query.Neighbors(u) {
		if !t.IsTreeEdge(u, v) {
			out = append(out, v)
		}
	}
	return out
}

// RootToLeafPaths returns every root-to-leaf path of the tree, each path
// starting at the root.
func (t *Tree) RootToLeafPaths() [][]graph.QueryVertex {
	var paths [][]graph.QueryVertex
	var walk func(u graph.QueryVertex, prefix []graph.QueryVertex)
	walk = func(u graph.QueryVertex, prefix []graph.QueryVertex) {
		prefix = append(prefix, u)
		if len(t.Children[u]) == 0 {
			paths = append(paths, append([]graph.QueryVertex(nil), prefix...))
			return
		}
		for _, c := range t.Children[u] {
			walk(c, prefix)
		}
	}
	walk(t.Root, nil)
	return paths
}

// Validate checks the tree's structural invariants; tests use it.
func (t *Tree) Validate() error {
	n := t.Query.NumVertices()
	if len(t.BFSOrder) != n {
		return fmt.Errorf("tree covers %d of %d vertices", len(t.BFSOrder), n)
	}
	treeEdges := 0
	for u := 0; u < n; u++ {
		if u == t.Root {
			if t.Parent[u] != -1 {
				return fmt.Errorf("root %d has parent %d", u, t.Parent[u])
			}
			continue
		}
		p := t.Parent[u]
		if p < 0 {
			return fmt.Errorf("vertex %d unreachable", u)
		}
		if !t.Query.HasEdge(u, p) {
			return fmt.Errorf("tree edge (%d,%d) not in query", u, p)
		}
		if t.Level[u] != t.Level[p]+1 {
			return fmt.Errorf("vertex %d level %d, parent level %d", u, t.Level[u], t.Level[p])
		}
		treeEdges++
	}
	if treeEdges+len(t.NonTreeEdges) != t.Query.NumEdges() {
		return fmt.Errorf("edge classification: %d tree + %d non-tree != %d",
			treeEdges, len(t.NonTreeEdges), t.Query.NumEdges())
	}
	return nil
}
