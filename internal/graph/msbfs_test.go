package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// csrFromEdges freezes an edge list straight into a snapshot, bypassing
// Graph.AddEdge so self-loops (both half-edges in the node's own row)
// and parallel edges reach the kernels exactly as listed.
func csrFromEdges(n int, edges [][2]int32) *CSR {
	c := &CSR{n: n, m: len(edges), rowStart: make([]int32, n+1)}
	for _, e := range edges {
		c.rowStart[e[0]+1]++
		c.rowStart[e[1]+1]++
	}
	for u := 0; u < n; u++ {
		c.rowStart[u+1] += c.rowStart[u]
	}
	c.nbr = make([]int32, 2*len(edges))
	c.edgeID = make([]int32, 2*len(edges))
	c.weight = make([]float64, 2*len(edges))
	fill := append([]int32(nil), c.rowStart[:n]...)
	for id, e := range edges {
		for _, h := range [][2]int32{{e[0], e[1]}, {e[1], e[0]}} {
			c.nbr[fill[h[0]]] = h[1]
			c.edgeID[fill[h[0]]] = int32(id)
			c.weight[fill[h[0]]] = 1
			fill[h[0]]++
		}
	}
	c.bfsNbr = append([]int32(nil), c.nbr...)
	for u := 0; u < n; u++ {
		slices.Sort(c.bfsNbr[c.rowStart[u]:c.rowStart[u+1]])
	}
	c.minW, c.maxW, c.bucketOK = 1, 1, true
	return c
}

// topDownHistogram counts ws.Hop after a reference BFS from src: the
// hop histogram HopHistograms must reproduce.
func topDownHistogram(c *CSR, ws *Workspace, src int) []int {
	c.BFSTopDown(ws, src)
	var hist []int
	for _, d := range ws.Hop[:c.n] {
		if d < 0 {
			continue
		}
		for int(d) >= len(hist) {
			hist = append(hist, 0)
		}
		hist[d]++
	}
	return hist
}

// checkHopHistograms runs srcs through HopHistograms in chunks of at
// most MSBFSLanes — the way the metric sweep batches them — and compares
// every source's histogram with the top-down reference.
func checkHopHistograms(t *testing.T, label string, c *CSR, srcs []int) {
	t.Helper()
	hw := GetHopWorkspace(c.n)
	defer hw.Release()
	ref := GetWorkspace(c.n)
	defer ref.Release()
	for lo := 0; lo < len(srcs); lo += MSBFSLanes {
		chunk := srcs[lo:min(lo+MSBFSLanes, len(srcs))]
		calls := 0
		c.HopHistograms(hw, chunk, func(i int, hist []int) {
			if i != calls {
				t.Fatalf("%s: callback for lane %d, want %d", label, i, calls)
			}
			calls++
			want := topDownHistogram(c, ref, chunk[i])
			if !slices.Equal(hist, want) {
				t.Fatalf("%s: source %d histogram %v, top-down %v", label, chunk[i], hist, want)
			}
		})
		if calls != len(chunk) {
			t.Fatalf("%s: %d callbacks for %d sources", label, calls, len(chunk))
		}
	}
}

// randomEdges draws m edges over n nodes, self-loops and parallel edges
// included, leaving nodes >= n-isolated without edges.
func randomEdges(r *rand.Rand, n, m, isolated int) [][2]int32 {
	span := n - isolated
	edges := make([][2]int32, 0, m)
	for i := 0; i < m && span > 0; i++ {
		u, v := int32(r.Intn(span)), int32(r.Intn(span))
		edges = append(edges, [2]int32{u, v})
		if r.Intn(8) == 0 {
			edges = append(edges, [2]int32{u, v})
		}
	}
	return edges
}

func TestHopHistogramsLaneCounts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 300
	c := csrFromEdges(n, randomEdges(r, n, 420, 7))
	for _, k := range []int{1, 63, 64, 65, 130} {
		srcs := r.Perm(n)[:k]
		checkHopHistograms(t, "random", c, srcs)
	}
	g := randomTestGraph(n, 80, 5)
	gc := g.Freeze()
	for _, k := range []int{1, 63, 64, 65, 130} {
		checkHopHistograms(t, "frozen", gc, r.Perm(n)[:k])
	}
}

func TestHopHistogramsSmallShapes(t *testing.T) {
	checkHopHistograms(t, "single", csrFromEdges(1, nil), []int{0})
	checkHopHistograms(t, "self-loop", csrFromEdges(2, [][2]int32{{0, 0}}), []int{0, 1})
	checkHopHistograms(t, "duplicate sources", csrFromEdges(3, [][2]int32{{0, 1}, {1, 2}}), []int{1, 1, 2})
	c := csrFromEdges(0, nil)
	calls := 0
	c.HopHistograms(new(HopWorkspace), nil, func(int, []int) { calls++ })
	if calls != 0 {
		t.Fatalf("empty source set made %d callbacks", calls)
	}
}

// TestHopHistogramsAllocFree pins the pooled-scratch claim: once the
// HopWorkspace has served a sweep of this size, another batch allocates
// nothing.
func TestHopHistogramsAllocFree(t *testing.T) {
	c := randomTestGraph(2000, 600, 9).Freeze()
	hw := new(HopWorkspace)
	srcs := make([]int, MSBFSLanes)
	for i := range srcs {
		srcs[i] = i * 31
	}
	sum := 0
	fn := func(_ int, hist []int) { sum += len(hist) }
	c.HopHistograms(hw, srcs, fn)
	if allocs := testing.AllocsPerRun(5, func() { c.HopHistograms(hw, srcs, fn) }); allocs != 0 {
		t.Fatalf("HopHistograms: %.0f allocs per warmed batch, want 0", allocs)
	}
}

// FuzzMultiSourceBFS: on random small multigraphs with self-loops,
// parallel edges and isolated nodes, every MS-BFS histogram equals the
// per-source top-down count.
func FuzzMultiSourceBFS(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(12), uint8(2), uint8(5))
	f.Add(int64(2), uint8(70), uint8(90), uint8(0), uint8(70))
	f.Add(int64(3), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(int64(4), uint8(130), uint8(40), uint8(30), uint8(130))
	f.Add(int64(5), uint8(64), uint8(200), uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, n, m, isolated, k uint8) {
		if n == 0 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		c := csrFromEdges(int(n), randomEdges(r, int(n), int(m), int(isolated)%int(n)))
		srcs := make([]int, int(k)%(2*MSBFSLanes+3))
		for i := range srcs {
			srcs[i] = r.Intn(int(n))
		}
		checkHopHistograms(t, "fuzz", c, srcs)
	})
}
