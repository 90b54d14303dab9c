package graph

import (
	"context"

	"repro/internal/errs"
	"repro/internal/par"
)

// Betweenness computes exact node betweenness centrality on the unweighted
// graph using Brandes' algorithm. The returned values are unnormalized
// pair-dependency sums (each unordered pair counted once). It is the
// reference for CSR.Betweenness.
func (g *Graph) Betweenness() []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	// Reusable buffers across sources.
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		stack = stack[:0]
		queue = queue[:0]
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		// Read by head index: reslicing the front away would give up
		// capacity and regrow the queue for every source.
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			stack = append(stack, u)
			for _, h := range g.adj[u] {
				v := h.to
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	// Each unordered pair was counted twice (once per endpoint as source).
	for i := range bc {
		bc[i] /= 2
	}
	return bc
}

// brandesWindow is how many sources per worker CSR.Betweenness keeps in
// flight between folds: the dependency vectors it holds are bounded by
// brandesWindow*workers*n float64s, and ctx is checked once per window.
const brandesWindow = 4

// brandesFoldSpan is the node-range chunk of the parallel fold.
const brandesFoldSpan = 4096

// brandesScratch is one worker's single-source Brandes state. pred is
// CSR-shaped: the predecessors of w fill pred[rowStart[w]:predEnd] in
// discovery order, never more than w's degree because each one arrives
// over a distinct half-edge of w.
type brandesScratch struct {
	node  []brandesNode
	queue []int32
	pred  []int32
}

// brandesNode packs the per-node state the forward pass reads together,
// so a neighbour visit touches one cache line: the shortest-path count,
// the hop distance (-1 unreached) and the end of the node's predecessor
// run in pred.
type brandesNode struct {
	sigma         float64
	dist, predEnd int32
}

// Betweenness is Graph.Betweenness on the snapshot, parallel over
// sources across up to workers goroutines (<= 0 means GOMAXPROCS) and
// bit-identical to it at any width. Workers compute windows of
// per-source dependency vectors with the reference kernel's traversal
// order and expressions; each window is then folded into the result in
// ascending source order, split by node range, so every entry sees the
// same additions in the same order as the serial loop. ctx is checked at
// every window; cancellation returns an errs.ErrCanceled-wrapping error.
func (c *CSR) Betweenness(ctx context.Context, workers int) ([]float64, error) {
	n := c.n
	bc := make([]float64, n)
	workers = par.Workers(workers, n)
	window := min(brandesWindow*workers, n)
	scratch := make([]brandesScratch, workers)
	for w := range scratch {
		scratch[w] = brandesScratch{
			node:  make([]brandesNode, n),
			queue: make([]int32, 0, n),
			pred:  make([]int32, len(c.nbr)),
		}
	}
	deltas := make([][]float64, window)
	for k := range deltas {
		deltas[k] = make([]float64, n)
	}
	for lo := 0; lo < n; lo += window {
		if err := errs.Ctx(ctx); err != nil {
			return nil, err
		}
		k := min(window, n-lo)
		par.ForEachWorkerErr(workers, k, func(w, i int) error {
			c.brandesSource(&scratch[w], lo+i, deltas[i])
			return nil
		})
		par.ForEach(workers, (n+brandesFoldSpan-1)/brandesFoldSpan, func(chunk int) {
			vlo := chunk * brandesFoldSpan
			vhi := min(vlo+brandesFoldSpan, n)
			for i, delta := range deltas[:k] {
				s := lo + i
				for v := vlo; v < vhi; v++ {
					if v != s {
						bc[v] += delta[v]
					}
				}
			}
		})
	}
	// Each unordered pair was counted twice (once per endpoint as source).
	for i := range bc {
		bc[i] /= 2
	}
	return bc, nil
}

// brandesSource writes source s's dependency vector into delta: one
// top-down BFS counting shortest paths in row order, then the
// reverse-order accumulation. Unreached nodes keep delta 0, which adds
// nothing in the fold.
func (c *CSR) brandesSource(sc *brandesScratch, s int, delta []float64) {
	node, pred := sc.node, sc.pred
	rowStart, nbr := c.rowStart, c.nbr
	clear(delta)
	for i := range node {
		node[i] = brandesNode{dist: -1, predEnd: rowStart[i]}
	}
	node[s].sigma = 1
	node[s].dist = 0
	queue := append(sc.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du, su := node[u].dist+1, node[u].sigma
		for _, v := range nbr[rowStart[u]:rowStart[u+1]] {
			nv := &node[v]
			if nv.dist < 0 {
				nv.dist = du
				queue = append(queue, v)
			}
			if nv.dist == du {
				nv.sigma += su
				pred[nv.predEnd] = u
				nv.predEnd++
			}
		}
	}
	sc.queue = queue
	// The queue is the reference kernel's stack: pop it in reverse.
	for i := len(queue) - 1; i >= 0; i-- {
		w := queue[i]
		sw, dw := node[w].sigma, 1+delta[w]
		for _, v := range pred[rowStart[w]:node[w].predEnd] {
			delta[v] += node[v].sigma / sw * dw
		}
	}
}

// KCore returns each node's core number: the largest k such that the node
// belongs to a subgraph in which every node has degree >= k.
func (g *Graph) KCore() []int {
	n := g.NumNodes()
	deg := g.Degrees()
	core := make([]int, n)
	// Bucket sort nodes by degree (Batagelj–Zaveršnik).
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	bin := make([]int, maxDeg+1)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		count := bin[d]
		bin[d] = start
		start += count
	}
	pos := make([]int, n)
	vert := make([]int, n)
	for v, d := range deg {
		pos[v] = bin[d]
		vert[pos[v]] = v
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	curDeg := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = curDeg[v]
		for _, h := range g.adj[v] {
			u := h.to
			if curDeg[u] > curDeg[v] {
				du := curDeg[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				curDeg[u]--
			}
		}
	}
	return core
}

// BridgeEdges returns the indices of all bridge edges (edges whose removal
// disconnects their component) via Tarjan's low-link DFS, iterative to
// avoid stack overflow on long path graphs.
func (g *Graph) BridgeEdges() []int {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []int
	timer := 0

	type frame struct {
		u, parentEdge int
		nextIdx       int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{u: s, parentEdge: -1}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.nextIdx < len(g.adj[f.u]) {
				h := g.adj[f.u][f.nextIdx]
				f.nextIdx++
				if h.edge == f.parentEdge {
					continue // don't traverse the tree edge back (parallel edges still processed)
				}
				if disc[h.to] == -1 {
					disc[h.to] = timer
					low[h.to] = timer
					timer++
					stack = append(stack, frame{u: h.to, parentEdge: h.edge})
				} else if disc[h.to] < low[f.u] {
					low[f.u] = disc[h.to]
				}
				continue
			}
			// Post-order: propagate low-link to parent.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.u] < low[p.u] {
					low[p.u] = low[f.u]
				}
				if low[f.u] > disc[p.u] {
					bridges = append(bridges, f.parentEdge)
				}
			}
		}
	}
	return bridges
}

// IsTwoEdgeConnected reports whether the graph is connected and has no
// bridges.
func (g *Graph) IsTwoEdgeConnected() bool {
	if g.NumNodes() < 2 {
		return false
	}
	return g.IsConnected() && len(g.BridgeEdges()) == 0
}
