package hotgen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Kernel parity suite: the direction-optimizing BFS and the bucketed
// Dijkstra must be bit-for-bit interchangeable with the reference
// kernels (BFSTopDown, DijkstraHeap) on every topology model of the
// repository — including masked variants, i.e. the subgraphs the
// robustness sweeps actually traverse after an attack has removed the
// highest-degree nodes. Run under -race -shuffle=on in CI.

type parityModel struct {
	name  string
	build func(seed int64) (*graph.Graph, error)
}

func parityModels() []parityModel {
	return []parityModel{
		{"ba", func(seed int64) (*graph.Graph, error) { return gen.BarabasiAlbert(400, 2, seed) }},
		{"er-gnm", func(seed int64) (*graph.Graph, error) { return gen.ErdosRenyiGNM(400, 900, seed) }},
		{"waxman", func(seed int64) (*graph.Graph, error) { return gen.Waxman(300, 0.1, 0.5, seed) }},
		{"fkp", func(seed int64) (*graph.Graph, error) { return core.FKP(core.FKPConfig{N: 300, Alpha: 8, Seed: seed}) }},
	}
}

// degreeMask returns the ids of the ceil(frac*n) highest-degree nodes
// (ties by id), the schedule a degree-targeted attack removes first.
func degreeMask(g *graph.Graph, frac float64) []int {
	n := g.NumNodes()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	deg := g.Degrees()
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	k := int(math.Ceil(frac * float64(n)))
	return append([]int(nil), ids[:k]...)
}

func checkKernelParity(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	c := g.Freeze()
	n := c.NumNodes()
	ref := graph.GetWorkspace(n)
	defer ref.Release()
	ws := graph.GetWorkspace(n)
	defer ws.Release()
	stride := n/12 + 1
	for src := 0; src < n; src += stride {
		c.BFSTopDown(ref, src)
		c.BFS(ws, src)
		refReach, reach := 0, 0
		for v := 0; v < n; v++ {
			if ref.Hop[v] != ws.Hop[v] {
				t.Fatalf("%s src %d: hop[%d] = %d dir-opt vs %d top-down", label, src, v, ws.Hop[v], ref.Hop[v])
			}
			if ref.Parent[v] != ws.Parent[v] {
				t.Fatalf("%s src %d: bfs parent[%d] = %d dir-opt vs %d top-down", label, src, v, ws.Parent[v], ref.Parent[v])
			}
			if ref.Hop[v] >= 0 {
				refReach++
			}
			if ws.Hop[v] >= 0 {
				reach++
			}
		}
		if refReach != reach {
			t.Fatalf("%s src %d: component size %d dir-opt vs %d top-down", label, src, reach, refReach)
		}

		c.DijkstraHeap(ref, src)
		c.Dijkstra(ws, src)
		for v := 0; v < n; v++ {
			if ref.Dist[v] != ws.Dist[v] {
				t.Fatalf("%s src %d: dist[%d] = %v bucketed vs %v heap", label, src, v, ws.Dist[v], ref.Dist[v])
			}
			if ref.Parent[v] != ws.Parent[v] || ref.ParentEdge[v] != ws.ParentEdge[v] {
				t.Fatalf("%s src %d: sp tree at %d = (%d,%d) bucketed vs (%d,%d) heap",
					label, src, v, ws.Parent[v], ws.ParentEdge[v], ref.Parent[v], ref.ParentEdge[v])
			}
		}
	}
}

func TestKernelParityAcrossModels(t *testing.T) {
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			checkKernelParity(t, m.name, g)

			// Masked variant: the post-attack residual graph after the top
			// 10% of nodes by degree are gone — typically fragmented, so
			// this also covers multi-component traversal.
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			checkKernelParity(t, m.name+"/masked", sub)
		}
	}
}

// checkBFSVariantsParity pins every BFS execution strategy — the sharded
// parallel bottom-up at worker counts 1/2/8 and cache-reordered
// snapshots (degree-descending and RCM) — to the serial
// direction-optimizing traversal on the plain snapshot: hops, parents,
// and the bottom-up level count, bit for bit.
func checkBFSVariantsParity(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	c := g.Freeze()
	n := c.NumNodes()
	if n == 0 {
		return
	}
	ref := graph.GetWorkspace(n)
	defer ref.Release()
	ws := graph.GetWorkspace(n)
	defer ws.Release()

	type variant struct {
		name string
		run  func(ws *graph.Workspace, src int)
	}
	var variants []variant
	for _, w := range []int{1, 2, 8} {
		w := w
		variants = append(variants, variant{
			name: fmt.Sprintf("par%d", w),
			run:  func(ws *graph.Workspace, src int) { c.BFSParallel(ws, src, w) },
		})
	}
	for _, m := range []struct {
		name string
		mode graph.ReorderMode
	}{{"degree", graph.ReorderDegree}, {"rcm", graph.ReorderRCM}} {
		rc := g.FreezeWithOptions(graph.FreezeOptions{Reorder: m.mode})
		variants = append(variants, variant{
			name: "reorder-" + m.name,
			run:  rc.BFS,
		})
	}

	stride := n/10 + 1
	for src := 0; src < n; src += stride {
		c.BFS(ref, src)
		for _, v := range variants {
			v.run(ws, src)
			if ws.BFSBottomUpLevels != ref.BFSBottomUpLevels {
				t.Fatalf("%s/%s src %d: %d bottom-up levels, serial dir-opt %d",
					label, v.name, src, ws.BFSBottomUpLevels, ref.BFSBottomUpLevels)
			}
			for u := 0; u < n; u++ {
				if ref.Hop[u] != ws.Hop[u] || ref.Parent[u] != ws.Parent[u] {
					t.Fatalf("%s/%s src %d: node %d = (hop %d, parent %d), serial dir-opt (%d, %d)",
						label, v.name, src, u, ws.Hop[u], ws.Parent[u], ref.Hop[u], ref.Parent[u])
				}
			}
		}
	}
}

func TestParallelReorderedBFSParityAcrossModels(t *testing.T) {
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			checkBFSVariantsParity(t, m.name, g)
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			checkBFSVariantsParity(t, m.name+"/masked", sub)
		}
	}
}

// checkDijkstraVariantsParity pins every Dijkstra execution strategy to
// the heap reference on the plain snapshot: the parallel bucketed
// kernel at worker counts 1/2/8 on the plain, degree-reordered, and
// RCM-reordered snapshots (the weighted kernels read the original-order
// arrays, so a reordering must be invisible to them), plus the serial
// bucketed kernel. dist, parent, and parentEdge, bit for bit.
func checkDijkstraVariantsParity(t *testing.T, label string, g *graph.Graph, stride int) {
	t.Helper()
	c := g.Freeze()
	n := c.NumNodes()
	if n == 0 {
		return
	}
	ref := graph.GetWorkspace(n)
	defer ref.Release()
	ws := graph.GetWorkspace(n)
	defer ws.Release()

	type variant struct {
		name string
		run  func(ws *graph.Workspace, src int)
	}
	variants := []variant{{"bucket-serial", func(ws *graph.Workspace, src int) { c.DijkstraParallel(ws, src, 1) }}}
	snaps := []struct {
		name string
		c    *graph.CSR
	}{
		{"plain", c},
		{"degree", g.FreezeWithOptions(graph.FreezeOptions{Reorder: graph.ReorderDegree})},
		{"rcm", g.FreezeWithOptions(graph.FreezeOptions{Reorder: graph.ReorderRCM})},
	}
	for _, s := range snaps {
		for _, w := range []int{2, 8} {
			s, w := s, w
			variants = append(variants, variant{
				name: fmt.Sprintf("%s/par%d", s.name, w),
				run:  func(ws *graph.Workspace, src int) { s.c.DijkstraParallel(ws, src, w) },
			})
		}
	}

	if stride <= 0 {
		stride = n/10 + 1
	}
	for src := 0; src < n; src += stride {
		c.DijkstraHeap(ref, src)
		for _, v := range variants {
			v.run(ws, src)
			for u := 0; u < n; u++ {
				if ref.Dist[u] != ws.Dist[u] || ref.Parent[u] != ws.Parent[u] || ref.ParentEdge[u] != ws.ParentEdge[u] {
					t.Fatalf("%s/%s src %d: node %d = (%v, %d, %d), heap (%v, %d, %d)",
						label, v.name, src, u, ws.Dist[u], ws.Parent[u], ws.ParentEdge[u],
						ref.Dist[u], ref.Parent[u], ref.ParentEdge[u])
				}
			}
		}
	}
}

func TestParallelDijkstraParityAcrossModels(t *testing.T) {
	for _, m := range parityModels() {
		for _, seed := range []int64{1, 2} {
			g, err := m.build(seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", m.name, seed, err)
			}
			checkDijkstraVariantsParity(t, m.name, g, 0)
			sub, _ := g.RemoveNodes(degreeMask(g, 0.10))
			checkDijkstraVariantsParity(t, m.name+"/masked", sub, 0)
		}
	}
}

// TestParallelDijkstraParityLargeFrontier runs the same pin on a
// 30k-node unit-weight BA graph: with unit weights a whole BFS level
// lands in one bucket window, so the peak frontier comfortably exceeds
// the parallel kernel's minimum-frontier floor and the sharded
// scan/merge path — not just the serial per-window fallback — is what
// actually executes.
func TestParallelDijkstraParityLargeFrontier(t *testing.T) {
	g, err := gen.BarabasiAlbert(30_000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkDijkstraVariantsParity(t, "ba-30k-unit", g, 7001)
}

// TestMaskedLCCTrajectoryMatchesSubgraphs walks a degree-attack removal
// schedule on each model and pins the masked LCC kernel (what the
// robustness sweeps measure) to materialized residual subgraphs.
func TestMaskedLCCTrajectoryMatchesSubgraphs(t *testing.T) {
	for _, m := range parityModels() {
		g, err := m.build(1)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		c := g.Freeze()
		ws := graph.GetWorkspace(c.NumNodes())
		defer ws.Release()
		removed := make([]bool, g.NumNodes())
		for _, frac := range []float64{0, 0.05, 0.2, 0.5} {
			ids := degreeMask(g, frac)
			for i := range removed {
				removed[i] = false
			}
			for _, u := range ids {
				removed[u] = true
			}
			sub, _ := g.RemoveNodes(ids)
			want := 0
			if sub.NumNodes() > 0 {
				want = sub.LargestComponentSize()
			}
			if got := c.LargestComponentMasked(ws, removed); got != want {
				t.Fatalf("%s frac %v: masked LCC %d vs subgraph %d", m.name, frac, got, want)
			}
		}
	}
}

// TestCSRBetweennessParityAcrossModels pins the source-parallel Brandes
// kernel to the serial Graph.Betweenness oracle with == on every model,
// a HOT topology, and a multigraph with parallel edges and isolated
// nodes, at widths that leave ragged windows (3) and exceed the
// machine (8).
func TestCSRBetweennessParityAcrossModels(t *testing.T) {
	models := append(parityModels(), parityModel{"hot", func(seed int64) (*graph.Graph, error) {
		g, _, err := core.GrowHOT(core.HOTConfig{
			N: 300, Seed: seed, LinksPerArrival: 2,
			Terms: []core.ObjectiveTerm{core.DistanceTerm{Weight: 8}, core.CentralityTerm{Weight: 1}},
		})
		return g, err
	}}, parityModel{"multigraph", func(int64) (*graph.Graph, error) {
		g := graph.New(9)
		for i := 0; i < 9; i++ {
			g.AddNode(graph.Node{})
		}
		for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {3, 4}, {4, 5}, {7, 8}} {
			g.AddEdge(graph.Edge{U: e[0], V: e[1], Weight: 1})
		}
		return g, nil // node 6 is isolated
	}})
	for _, m := range models {
		g, err := m.build(1)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		want := g.Betweenness()
		c := g.Freeze()
		for _, w := range []int{1, 2, 3, 8} {
			got, err := c.Betweenness(context.Background(), w)
			if err != nil {
				t.Fatalf("%s workers %d: %v", m.name, w, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers %d: %d values, want %d", m.name, w, len(got), len(want))
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s workers %d: bc[%d] = %v, Graph.Betweenness %v", m.name, w, v, got[v], want[v])
				}
			}
		}
	}
}
