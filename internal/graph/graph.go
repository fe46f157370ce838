// Package graph provides the undirected-graph type used as the radio
// network topology, together with generators for every topology family in
// the paper's analysis (paths, cliques, stars, K_{2,k}, grids, random
// graphs, random trees, bounded-degree graphs) and the structural metrics
// the model parameters are drawn from (maximum degree Delta, diameter D).
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Graph is a simple undirected graph on vertices 0..N-1 with adjacency
// lists. The zero value is an empty graph; use New to allocate vertices.
//
// Invariant: every adjacency list is sorted ascending at all times.
// AddEdge inserts in sorted position (O(1) amortized for the generators,
// which emit edges in ascending order), so Neighbors never needs a sort
// and seeded simulations are independent of construction order. Consumers
// such as the radio engine's collision resolution rely on this.
type Graph struct {
	adj  [][]int
	m    int
	name string

	// csrMu guards the lazily built CSR mirror below. Construction
	// (AddEdge) is single-threaded by contract; CSR may be called
	// concurrently once the graph is built.
	csrMu  sync.Mutex
	csrOff []int32
	csrAdj []int32

	// diamMu guards the stored Diameter and IsConnected results, each
	// computed on its first call and cleared by AddEdge like the CSR
	// mirror.
	diamMu  sync.Mutex
	diamOK  bool
	diam    int
	diamErr error
	connOK  bool
	conn    bool
}

// errDisconnected is the error Eccentricity and Diameter report for a
// disconnected graph.
var errDisconnected = errors.New("graph: disconnected")

// New returns a graph with n isolated vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Name returns the generator-assigned human-readable topology name,
// if any ("path-16", "gnp-64-0.10", ...).
func (g *Graph) Name() string { return g.name }

// SetName records a human-readable topology name.
func (g *Graph) SetName(name string) { g.name = name }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error (the radio model assumes a simple
// graph). Each endpoint is inserted in sorted position, preserving the
// sorted-adjacency invariant; generators emit edges in ascending order,
// so the common case is a plain append.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.N())
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.m++
	g.csrOff, g.csrAdj = nil, nil     // invalidate the CSR mirror
	g.diamOK, g.connOK = false, false // and the stored diameter and connectivity
	return nil
}

// insertSorted inserts x into the sorted slice s, keeping it sorted.
func insertSorted(s []int, x int) []int {
	if n := len(s); n == 0 || s[n-1] < x {
		return append(s, x) // generators append in ascending order
	}
	i := sort.SearchInts(s, x)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// mustAddEdge is used by generators whose construction cannot produce
// invalid edges.
func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return false
	}
	// Binary-search the shorter (sorted) list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	s := g.adj[a]
	i := sort.SearchInts(s, b)
	return i < len(s) && s[i] == b
}

// Neighbors returns the adjacency list of v, sorted ascending. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Delta, the maximum vertex degree (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for _, nb := range g.adj {
		if len(nb) > d {
			d = len(nb)
		}
	}
	return d
}

// SortAdjacency sorts every adjacency list ascending. Since AddEdge now
// maintains sortedness as an invariant it is a no-op for graphs built
// through the public API; it is kept as a repair valve for callers that
// reach into a graph by other means.
func (g *Graph) SortAdjacency() {
	for _, nb := range g.adj {
		sort.Ints(nb)
	}
}

// CSR returns the graph's adjacency in compressed-sparse-row form: the
// neighbors of v are adj[off[v]:off[v+1]], sorted ascending. The two
// slices are built lazily on first call, cached, and shared by every
// caller — they must not be modified. The flat layout is what the radio
// engine's hot collision-resolution loop iterates: one contiguous block
// per vertex instead of n separately allocated lists.
//
// CSR is safe for concurrent use once construction is finished; it must
// not race with AddEdge (which invalidates the cache).
func (g *Graph) CSR() (off, adj []int32) {
	g.csrMu.Lock()
	defer g.csrMu.Unlock()
	if g.csrOff == nil {
		n := g.N()
		g.csrOff = make([]int32, n+1)
		g.csrAdj = make([]int32, 0, 2*g.m)
		for v := 0; v < n; v++ {
			g.csrOff[v] = int32(len(g.csrAdj))
			for _, w := range g.adj[v] {
				g.csrAdj = append(g.csrAdj, int32(w))
			}
		}
		g.csrOff[n] = int32(len(g.csrAdj))
	}
	return g.csrOff, g.csrAdj
}

// BFS returns dist where dist[v] is the hop distance from src, or -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected (true for n <= 1).
//
// Like Diameter, the answer is computed on the first call and stored on
// the graph, AddEdge clears it, later calls return it without
// allocating, and concurrent first calls are safe once construction is
// finished.
func (g *Graph) IsConnected() bool {
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if !g.connOK {
		g.conn = g.bfsReachesAll()
		g.connOK = true
	}
	return g.conn
}

// bfsReachesAll reports whether a BFS from vertex 0 reaches every vertex.
func (g *Graph) bfsReachesAll() bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum BFS distance from v, or an error if the
// graph is disconnected from v.
func (g *Graph) Eccentricity(v int) (int, error) {
	ecc := 0
	for _, d := range g.BFS(v) {
		if d == -1 {
			return 0, errDisconnected
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, nil
}

// Diameter returns the exact diameter D = max_{u,v} dist(u,v), or an
// error ("graph: disconnected") if the graph is disconnected; the empty
// graph has diameter 0.
//
// The value is computed on the first call and stored on the graph; every
// later call returns the stored result without allocating. AddEdge
// clears it. Like CSR, Diameter is safe for concurrent use once
// construction is finished (concurrent first calls compute it once and
// all see the same result); it must not race with AddEdge.
//
// The computation is iFUB (Crescenzi et al., "On computing the diameter
// of real-world undirected graphs", TCS 2013) over the CSR arrays: one
// BFS from a maximum-degree vertex u, then BFS runs from the vertices of
// u's BFS levels, deepest level first, until the largest eccentricity
// found meets the bound 2(i-1) on every pair left in levels below i. On
// typical topologies that is a handful of BFS runs instead of n.
func (g *Graph) Diameter() (int, error) {
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if !g.diamOK {
		g.diam, g.diamErr = g.ifub()
		g.diamOK = true
	}
	return g.diam, g.diamErr
}

// ifub computes the exact diameter with iFUB (see Diameter). One buffer
// holds the start vertex's BFS order plus the dist/queue pair that every
// later BFS reuses.
func (g *Graph) ifub() (int, error) {
	n := g.N()
	if n == 0 {
		return 0, nil
	}
	off, adj := g.CSR()
	u := 0
	for v := range g.adj {
		if len(g.adj[v]) > len(g.adj[u]) {
			u = v
		}
	}
	buf := make([]int32, 3*n)
	order, dist, queue := buf[:n], buf[n:2*n], buf[2*n:]
	ecc, reached := bfsCSR(off, adj, int32(u), dist, order)
	if reached < n {
		return 0, errDisconnected
	}
	// order lists the vertices by distance from u; level i is
	// order[start[i]:start[i+1]].
	start := make([]int, ecc+2)
	for k := n - 1; k >= 0; k-- {
		start[dist[order[k]]] = k
	}
	start[ecc+1] = n
	lb, ub := ecc, 2*ecc // ecc(u) <= D <= 2 ecc(u)
	for i := ecc; lb < ub; i-- {
		for _, x := range order[start[i]:start[i+1]] {
			if e, _ := bfsCSR(off, adj, x, dist, queue); e > lb {
				if lb = e; lb >= ub {
					return lb, nil
				}
			}
		}
		// Every pair not yet covered lies in levels < i, at distance
		// at most 2(i-1) through u.
		ub = 2 * (i - 1)
	}
	return lb, nil
}

// bfsCSR runs a BFS from src over the CSR arrays, writing hop distances
// to dist (-1 for unreached vertices) and the reached vertices, in
// nondecreasing distance order, to queue. It returns src's eccentricity
// within its component and the number of vertices reached.
func bfsCSR(off, adj []int32, src int32, dist, queue []int32) (ecc, reached int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue[0] = src
	head, tail := 0, 1
	for head < tail {
		v := queue[head]
		head++
		dv := dist[v] + 1
		for _, w := range adj[off[v]:off[v+1]] {
			if dist[w] < 0 {
				dist[w] = dv
				queue[tail] = w
				tail++
			}
		}
	}
	return int(dist[queue[tail-1]]), tail
}

// TwoHopNeighbors returns the set N2(v): vertices at distance exactly 1 or
// 2 from v, excluding v itself, in ascending order.
func (g *Graph) TwoHopNeighbors(v int) []int {
	seen := make(map[int]bool)
	for _, u := range g.adj[v] {
		seen[u] = true
		for _, w := range g.adj[u] {
			if w != v {
				seen[w] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for u := range seen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.N())
	c.m = g.m
	c.name = g.name
	for v, nb := range g.adj {
		c.adj[v] = append([]int(nil), nb...)
	}
	return c
}

// Validate checks structural invariants (symmetry, no self-loops, no
// duplicates); generators call it in tests.
func (g *Graph) Validate() error {
	count := 0
	for v, nb := range g.adj {
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				return fmt.Errorf("graph: adjacency of %d not sorted at %v", v, nb)
			}
		}
		seen := make(map[int]bool, len(nb))
		for _, w := range nb {
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if w < 0 || w >= g.N() {
				return fmt.Errorf("graph: neighbor %d of %d out of range", w, v)
			}
			if seen[w] {
				return fmt.Errorf("graph: duplicate edge {%d,%d}", v, w)
			}
			seen[w] = true
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge {%d,%d}", v, w)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: m=%d but %d half-edges", g.m, count)
	}
	return nil
}
