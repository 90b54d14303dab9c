package graph

import (
	"math/bits"
	"sync"
)

// MSBFSLanes is the number of sources one HopHistograms call traverses
// together: one bit per source in a uint64 lane word.
const MSBFSLanes = 64

// HopWorkspace is the scratch of HopHistograms: per-node seen, visit
// and next lane words (bit i belongs to the call's i-th source), the
// level-major per-source counts, and the histogram handed to the
// callback. A sync.Pool recycles them (GetHopWorkspace / Release), so
// steady-state sweeps allocate nothing per batch. At 24 bytes per node
// it is far smaller than a Workspace, whose single-source buffers the
// multi-source sweep never touches.
type HopWorkspace struct {
	seen, visit, next []uint64
	counts            []int32
	hist              []int
}

var hopPool = sync.Pool{New: func() any { return new(HopWorkspace) }}

// GetHopWorkspace takes a HopWorkspace from the shared pool, grown to n
// nodes. Pair with Release.
func GetHopWorkspace(n int) *HopWorkspace {
	hw := hopPool.Get().(*HopWorkspace)
	hw.reserve(n)
	return hw
}

// Release returns hw to the pool. The caller must not touch hw
// afterwards.
func (hw *HopWorkspace) Release() { hopPool.Put(hw) }

// reserve grows the lane words to n nodes; shrinking never happens.
func (hw *HopWorkspace) reserve(n int) {
	if cap(hw.seen) < n {
		hw.seen = make([]uint64, n)
		hw.visit = make([]uint64, n)
		hw.next = make([]uint64, n)
	}
}

// HopHistograms runs one bit-parallel multi-source BFS (MS-BFS; Then et
// al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
// PVLDB 8(4), 2014) from up to MSBFSLanes sources and then calls
// fn(i, hist) once per source, in ascending i, with the hop histogram of
// srcs[i]: hist[h] is the number of nodes at exactly h hops from it
// (hist[0] == 1), and len(hist)-1 is its eccentricity within its
// component. hist is scratch owned by hw and valid only during the call.
//
// Every node carries a seen/visit/next word whose bit i belongs to
// srcs[i], so each level scans a frontier node's row once for all the
// sources that reached it at that level, instead of once per source.
// The histograms are exact integer counts, identical to counting the
// Hop array of a single-source BFS from each source. Allocation-free
// once hw has warmed up.
func (c *CSR) HopHistograms(hw *HopWorkspace, srcs []int, fn func(i int, hist []int)) {
	if len(srcs) > MSBFSLanes {
		panic("graph: HopHistograms takes at most 64 sources")
	}
	n := c.n
	hw.reserve(n)
	seen, visit, next := hw.seen[:n], hw.visit[:n], hw.next[:n]
	clear(seen)
	clear(visit)
	clear(next)
	// counts is level-major: counts[h*MSBFSLanes+i] is the number of
	// nodes srcs[i] reaches at exactly h hops.
	counts := append(hw.counts[:0], make([]int32, MSBFSLanes)...)
	for i, s := range srcs {
		bit := uint64(1) << uint(i)
		seen[s] |= bit
		visit[s] |= bit
		counts[i]++
	}
	rowStart, nbr := c.rowStart, c.nbr
	for {
		for v, x := range visit {
			if x == 0 {
				continue
			}
			for _, u := range nbr[rowStart[v]:rowStart[v+1]] {
				next[u] |= x
			}
		}
		base := len(counts)
		counts = append(counts, make([]int32, MSBFSLanes)...)
		reached := false
		for v, x := range next {
			x &^= seen[v]
			next[v] = 0
			visit[v] = x
			if x == 0 {
				continue
			}
			seen[v] |= x
			reached = true
			for ; x != 0; x &= x - 1 {
				counts[base+bits.TrailingZeros64(x)]++
			}
		}
		if !reached {
			counts = counts[:base]
			break
		}
	}
	hw.counts = counts
	levels := len(counts) / MSBFSLanes
	for i := range srcs {
		// A source's levels are contiguous: its first empty level ends it.
		hist := hw.hist[:0]
		for h := 0; h < levels; h++ {
			k := counts[h*MSBFSLanes+i]
			if k == 0 {
				break
			}
			hist = append(hist, int(k))
		}
		hw.hist = hist
		fn(i, hist)
	}
}
