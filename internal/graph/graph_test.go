package graph

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("New(5): N=%d M=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("empty graph MaxDegree = %d", g.MaxDegree())
	}
	if New(-3).N() != 0 {
		t.Fatal("New(-3) should have 0 vertices")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Fatal("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d after one valid edge", g.M())
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := Star(5)
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("star missing center edge")
	}
	if g.HasEdge(1, 2) {
		t.Fatal("star has leaf-leaf edge")
	}
	if g.HasEdge(-1, 2) || g.HasEdge(0, 99) {
		t.Fatal("HasEdge out of range should be false")
	}
	if g.Degree(0) != 4 || g.Degree(1) != 1 {
		t.Fatalf("star degrees: %d, %d", g.Degree(0), g.Degree(1))
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("star MaxDegree = %d", g.MaxDegree())
	}
}

func TestBFSAndDiameterPath(t *testing.T) {
	g := Path(10)
	dist := g.BFS(0)
	for i := 0; i < 10; i++ {
		if dist[i] != i {
			t.Fatalf("path BFS dist[%d] = %d", i, dist[i])
		}
	}
	d, err := g.Diameter()
	if err != nil || d != 9 {
		t.Fatalf("path-10 diameter = %d, %v", d, err)
	}
}

func TestDiameterKnownValues(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Clique(6), 1},
		{Star(8), 2},
		{K2k(5), 2},
		{Grid(4, 6), 8},
		{Hypercube(4), 4},
		{Cycle(8), 4},
		{Cycle(9), 4},
	}
	for _, c := range cases {
		d, err := c.g.Diameter()
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name(), err)
		}
		if d != c.want {
			t.Errorf("%s diameter = %d, want %d", c.g.Name(), d, c.want)
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if _, err := g.Diameter(); err == nil {
		t.Fatal("Diameter on disconnected graph should error")
	}
	if _, err := g.Eccentricity(0); err == nil {
		t.Fatal("Eccentricity on disconnected graph should error")
	}
}

func TestK2kStructure(t *testing.T) {
	for _, k := range []int{1, 2, 7} {
		g := K2k(k)
		if g.N() != k+2 {
			t.Fatalf("K2k(%d): N = %d", k, g.N())
		}
		if g.HasEdge(0, 1) {
			t.Fatal("K2k: s and t must not be adjacent")
		}
		if g.Degree(0) != k || g.Degree(1) != k {
			t.Fatalf("K2k(%d): deg(s)=%d deg(t)=%d", k, g.Degree(0), g.Degree(1))
		}
		for i := 2; i < g.N(); i++ {
			if g.Degree(i) != 2 {
				t.Fatalf("K2k middle vertex degree %d", g.Degree(i))
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTwoHopNeighbors(t *testing.T) {
	g := Path(6)
	n2 := g.TwoHopNeighbors(2)
	want := []int{0, 1, 3, 4}
	if len(n2) != len(want) {
		t.Fatalf("TwoHopNeighbors(2) = %v", n2)
	}
	for i := range want {
		if n2[i] != want[i] {
			t.Fatalf("TwoHopNeighbors(2) = %v, want %v", n2, want)
		}
	}
	// Endpoint.
	n2 = g.TwoHopNeighbors(0)
	if len(n2) != 2 || n2[0] != 1 || n2[1] != 2 {
		t.Fatalf("TwoHopNeighbors(0) = %v", n2)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Path(4)
	c := g.Clone()
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Fatal("Clone shares adjacency with original")
	}
	if c.M() != g.M()+1 {
		t.Fatalf("clone M=%d orig M=%d", c.M(), g.M())
	}
	if c.Name() != g.Name() {
		t.Fatal("clone lost name")
	}
}

func TestGeneratorsValidateAndConnect(t *testing.T) {
	gs := []*Graph{
		Path(1), Path(17), Cycle(3), Cycle(12), Clique(9), Star(11),
		K2k(4), Grid(3, 7), Hypercube(5), RandomTree(40, 1),
		GNP(40, 0.15, 2), RandomBoundedDegree(50, 4, 3),
		Caterpillar(8, 3), Lollipop(6, 10),
	}
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name(), err)
		}
		if !g.IsConnected() {
			t.Errorf("%s: not connected", g.Name())
		}
	}
}

func TestRandomBoundedDegreeRespectsBound(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := RandomBoundedDegree(64, 4, seed)
		if g.MaxDegree() > 4 {
			t.Fatalf("seed %d: MaxDegree %d > 4", seed, g.MaxDegree())
		}
	}
	// maxDeg < 2 is clamped to 2 and still yields a connected path.
	g := RandomBoundedDegree(10, 1, 0)
	if !g.IsConnected() || g.MaxDegree() > 2 {
		t.Fatal("RandomBoundedDegree(10,1) invalid")
	}
}

func TestGNPDeterministicPerSeed(t *testing.T) {
	a := GNP(30, 0.2, 7)
	b := GNP(30, 0.2, 7)
	if a.M() != b.M() {
		t.Fatalf("GNP not deterministic: %d vs %d edges", a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("GNP adjacency differs at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("GNP adjacency differs at %d", v)
			}
		}
	}
}

func TestGNPSparseFallbackConnects(t *testing.T) {
	// p = 0 can never be connected by sampling; the fallback must stitch.
	g := GNP(12, 0, 5)
	if !g.IsConnected() {
		t.Fatal("GNP fallback did not produce a connected graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCaterpillarShape(t *testing.T) {
	g := Caterpillar(5, 2)
	if g.N() != 15 {
		t.Fatalf("caterpillar N = %d", g.N())
	}
	// Interior spine vertices: 2 spine neighbors + 2 legs.
	if g.Degree(2) != 4 {
		t.Fatalf("caterpillar interior spine degree = %d", g.Degree(2))
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 6 { // leg - spine(0..4) - leg
		t.Fatalf("caterpillar diameter = %d", d)
	}
}

func TestLollipopShape(t *testing.T) {
	g := Lollipop(4, 6)
	if g.N() != 10 {
		t.Fatalf("lollipop N = %d", g.N())
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 { // across clique (1) + tail (6)
		t.Fatalf("lollipop diameter = %d", d)
	}
}

func TestSortAdjacency(t *testing.T) {
	g := New(4)
	for _, e := range [][2]int{{3, 0}, {2, 0}, {1, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SortAdjacency()
	nb := g.Neighbors(0)
	for i := 0; i+1 < len(nb); i++ {
		if nb[i] > nb[i+1] {
			t.Fatalf("adjacency not sorted: %v", nb)
		}
	}
}

// assertSorted fails unless every adjacency list of g is strictly
// ascending — the constructor invariant the radio engine's collision
// resolution depends on (it dropped its per-listener sort).
func assertSorted(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("%s: Neighbors(%d) not sorted: %v", g.Name(), v, nb)
			}
		}
	}
}

// TestNeighborsSortedInvariant guards the sorted-adjacency invariant on
// every generator, including the ones whose construction order is not
// ascending (cycle's wrap-around edge, bounded-degree's random chords)
// and the out-of-order AddEdge path itself.
func TestNeighborsSortedInvariant(t *testing.T) {
	gs := []*Graph{
		Path(17), Cycle(12), Star(9), Clique(7), K2k(5),
		Grid(4, 5), Hypercube(4), RandomTree(33, 3),
		GNP(40, 0.15, 9), RandomGeometric(30, 0, 5),
		RandomBoundedDegree(25, 4, 11), Caterpillar(6, 3), Lollipop(5, 6),
	}
	for _, g := range gs {
		assertSorted(t, g)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
	}
	// Edges inserted in descending/interleaved order through AddEdge.
	g := New(6)
	for _, e := range [][2]int{{5, 0}, {3, 0}, {4, 0}, {1, 0}, {2, 5}, {2, 1}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	assertSorted(t, g)
	if got := g.Neighbors(0); len(got) != 4 || got[0] != 1 || got[1] != 3 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("Neighbors(0) = %v, want [1 3 4 5]", got)
	}
}

// TestCSR checks the compressed-sparse-row mirror against Neighbors and
// its cache invalidation on mutation.
func TestCSR(t *testing.T) {
	g := Grid(3, 4)
	off, adj := g.CSR()
	if len(off) != g.N()+1 || int(off[g.N()]) != 2*g.M() {
		t.Fatalf("CSR shape: len(off)=%d, off[n]=%d, want %d half-edges", len(off), off[g.N()], 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		row := adj[off[v]:off[v+1]]
		if len(row) != len(nb) {
			t.Fatalf("CSR row %d has %d entries, want %d", v, len(row), len(nb))
		}
		for i, w := range nb {
			if int(row[i]) != w {
				t.Fatalf("CSR row %d = %v, want %v", v, row, nb)
			}
		}
	}
	// Cached: same backing arrays on a second call.
	off2, adj2 := g.CSR()
	if &off2[0] != &off[0] || &adj2[0] != &adj[0] {
		t.Fatal("CSR not cached across calls")
	}
	// Invalidated by mutation.
	if err := g.AddEdge(0, 11); err != nil {
		t.Fatal(err)
	}
	off3, _ := g.CSR()
	if int(off3[g.N()]) != 2*g.M() {
		t.Fatalf("CSR stale after AddEdge: off[n]=%d, want %d", off3[g.N()], 2*g.M())
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := New(3)
	g.adj[0] = append(g.adj[0], 1) // corrupt: half-edge only
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric edge")
	}
}

func TestGraphPropertyHandshake(t *testing.T) {
	// Property: sum of degrees = 2M for random graphs.
	f := func(rawN uint8, rawSeed uint16) bool {
		n := int(rawN)%40 + 2
		g := GNP(n, 0.3, uint64(rawSeed))
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := Path(3)
	dist := g.BFS(-1)
	for _, d := range dist {
		if d != -1 {
			t.Fatal("BFS(-1) should mark everything unreachable")
		}
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(40, 0.3, 7)
	if g.N() != 40 || !g.IsConnected() {
		t.Fatalf("rgg: n=%d connected=%v", g.N(), g.IsConnected())
	}
	if g.Name() != "rgg-40-0.30" {
		t.Errorf("name = %q", g.Name())
	}
	// Deterministic in the seed.
	h := RandomGeometric(40, 0.3, 7)
	if g.M() != h.M() {
		t.Errorf("same seed, different edge counts: %d vs %d", g.M(), h.M())
	}
	if RandomGeometric(40, 0.3, 8).M() == g.M() && RandomGeometric(40, 0.3, 9).M() == g.M() {
		t.Error("different seeds produced identical edge counts thrice; generator ignores seed?")
	}
	// A tiny radius forces the connectivity fixup.
	sparse := RandomGeometric(30, 0.01, 3)
	if !sparse.IsConnected() {
		t.Error("fixup failed to connect a sub-threshold sample")
	}
	if sparse.M() < 29 {
		t.Errorf("connected graph needs >= n-1 edges, got %d", sparse.M())
	}
	// Default radius (r <= 0) sits above the connectivity threshold.
	if def := RandomGeometric(50, 0, 11); !def.IsConnected() {
		t.Error("default radius sample disconnected")
	}
}

// diameterAllPairs is the reference Diameter: the maximum eccentricity
// over a BFS from every vertex.
func diameterAllPairs(g *Graph) (int, error) {
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc, err := g.Eccentricity(v)
		if err != nil {
			return 0, err
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// rawGNP samples G(n,p) without conditioning on connectivity, so sparse
// samples are disconnected.
func rawGNP(n int, p float64, seed uint64) *Graph {
	g := New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Bernoulli(r, p) {
				g.mustAddEdge(i, j)
			}
		}
	}
	g.name = fmt.Sprintf("raw-gnp-%d-%.2f-%d", n, p, seed)
	return g
}

// diameterCases returns graphs from every generator plus small and
// disconnected ones.
func diameterCases() []*Graph {
	var gs []*Graph
	for n := 0; n <= 12; n++ {
		gs = append(gs, Path(n), Cycle(n), Star(n))
	}
	for n := 0; n <= 8; n++ {
		gs = append(gs, Clique(n), K2k(n)) // K2k(0): two isolated vertices
	}
	for r := 0; r <= 6; r++ {
		for c := 0; c <= 7; c++ {
			gs = append(gs, Grid(r, c))
		}
	}
	for d := 0; d <= 6; d++ {
		gs = append(gs, Hypercube(d))
	}
	for spine := 0; spine <= 6; spine++ {
		for legs := 0; legs <= 3; legs++ {
			gs = append(gs, Caterpillar(spine, legs))
		}
	}
	for k := 1; k <= 6; k++ {
		for tail := 0; tail <= 7; tail++ {
			gs = append(gs, Lollipop(k, tail))
		}
	}
	for seed := uint64(0); seed < 40; seed++ {
		n := 1 + int(seed*7%61)
		gs = append(gs,
			RandomTree(n, seed),
			GNP(n, 0.08, seed), GNP(n, 0.3, seed),
			RandomGeometric(n, 0, seed), RandomGeometric(n, 0.2, seed),
			RandomBoundedDegree(n, 3, seed),
			rawGNP(n, 0.04, seed), rawGNP(n, 0.15, seed))
	}
	// Disconnected shapes around the start vertex: an isolated vertex
	// beside a hub, and two components of different diameter.
	hub := New(7)
	for v := 1; v < 6; v++ {
		hub.mustAddEdge(0, v)
	}
	two := New(9)
	for v := 0; v+1 < 4; v++ {
		two.mustAddEdge(v, v+1)
	}
	for v := 4; v < 9; v++ {
		if v != 6 {
			two.mustAddEdge(6, v)
		}
	}
	return append(gs, hub, two, New(2), New(3))
}

func TestDiameterMatchesAllPairs(t *testing.T) {
	disconnected := 0
	for i, g := range diameterCases() {
		want, wantErr := diameterAllPairs(g)
		got, err := g.Diameter()
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("case %d %s (n=%d m=%d): error %v, want %v", i, g.Name(), g.N(), g.M(), err, wantErr)
		}
		if err != nil {
			disconnected++
			if err.Error() != "graph: disconnected" {
				t.Fatalf("case %d %s: error %q", i, g.Name(), err)
			}
			continue
		}
		if got != want {
			t.Fatalf("case %d %s (n=%d m=%d): iFUB diameter %d, all-pairs %d", i, g.Name(), g.N(), g.M(), got, want)
		}
	}
	if disconnected < 10 {
		t.Fatalf("only %d disconnected cases; the error path is under-tested", disconnected)
	}
}

func TestDiameterClearedByAddEdge(t *testing.T) {
	g := Path(3)
	if d, err := g.Diameter(); err != nil || d != 2 {
		t.Fatalf("path-3 diameter = %d, %v", d, err)
	}
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if d, err := g.Diameter(); err != nil || d != 1 {
		t.Fatalf("after AddEdge(0,2): diameter = %d, %v, want 1", d, err)
	}
	// A stored error is cleared too.
	h := New(2)
	if _, err := h.Diameter(); err == nil {
		t.Fatal("two isolated vertices: no error")
	}
	if err := h.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if d, err := h.Diameter(); err != nil || d != 1 {
		t.Fatalf("after AddEdge(0,1): diameter = %d, %v, want 1", d, err)
	}
}

func TestDiameterNotCarriedByClone(t *testing.T) {
	g := Path(4)
	if d, _ := g.Diameter(); d != 3 {
		t.Fatalf("path-4 diameter = %d", d)
	}
	c := g.Clone()
	if c.diamOK {
		t.Fatal("Clone copied the stored diameter")
	}
	if err := c.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if d, err := c.Diameter(); err != nil || d != 2 {
		t.Fatalf("clone + {0,3}: diameter = %d, %v, want 2", d, err)
	}
	if d, _ := g.Diameter(); d != 3 {
		t.Fatalf("original diameter changed to %d", d)
	}
}

func TestDiameterConcurrent(t *testing.T) {
	g := RandomGeometric(300, 0, 5)
	want, err := diameterAllPairs(g)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]int, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], errs[w] = g.Diameter()
		}(w)
	}
	close(start)
	wg.Wait()
	for w := range got {
		if errs[w] != nil || got[w] != want {
			t.Fatalf("goroutine %d: diameter %d, %v; want %d", w, got[w], errs[w], want)
		}
	}
}

func TestDiameterWarmAllocs(t *testing.T) {
	g := Grid(8, 8)
	if _, err := g.Diameter(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = g.Diameter() }); a != 0 {
		t.Fatalf("warm Diameter: %v allocs/op, want 0", a)
	}
}

// BenchmarkDiameter measures the cold computation: each iteration runs
// Diameter on a fresh copy of the graph (its CSR mirror included).
func BenchmarkDiameter(b *testing.B) {
	for _, g := range []*Graph{Star(1024), Grid(32, 32), RandomGeometric(4096, 0, 1)} {
		b.Run(g.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := g.Clone()
				b.StartTimer()
				if _, err := c.Diameter(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestIsConnectedClearedByAddEdge(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.IsConnected() {
		t.Fatal("{0,1} + isolated 2: connected")
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("after AddEdge(1,2): still reported disconnected")
	}
	c := g.Clone()
	if c.connOK {
		t.Fatal("Clone copied the stored connectivity")
	}
	if !c.IsConnected() {
		t.Fatal("clone of a connected graph reported disconnected")
	}
}

func TestIsConnectedConcurrent(t *testing.T) {
	for _, tc := range []struct {
		g    *Graph
		want bool
	}{
		{RandomGeometric(300, 0, 5), true},
		{New(300), false},
	} {
		const workers = 8
		got := make([]bool, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				got[w] = tc.g.IsConnected()
			}(w)
		}
		close(start)
		wg.Wait()
		for w, c := range got {
			if c != tc.want {
				t.Fatalf("goroutine %d: IsConnected = %v, want %v", w, c, tc.want)
			}
		}
	}
}

func TestIsConnectedWarmAllocs(t *testing.T) {
	g := Grid(8, 8)
	if !g.IsConnected() {
		t.Fatal("grid disconnected")
	}
	if a := testing.AllocsPerRun(100, func() { _ = g.IsConnected() }); a != 0 {
		t.Fatalf("warm IsConnected: %v allocs/op, want 0", a)
	}
}
