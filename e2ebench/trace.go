package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call around a layer's public function. Times are
// seconds since the recorder started; Self is filled by fillSelf.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Name   string  `json:"name"`
	Unit   int     `json:"unit"` // (scenario, rep) unit or job index; -1 when batch-level
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths share the traced ones.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, unit int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Unit: unit, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// call runs fn inside a span, passing it the span's id so that fn can
// parent spans of its own.
func (r *recorder) call(name string, parent, unit int, fn func(id int) error) error {
	id := r.begin(name, parent, unit)
	err := fn(id)
	r.end(id)
	return err
}

// fillSelf sets each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may nest (a
// grandchild lies inside its parent, so it is already counted there)
// and may overlap one another (concurrent children), so the covered
// part is the measure of the union of the children's intervals, each
// clipped to the parent's.
func fillSelf(spans []span) {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi float64, ivs [][2]float64) float64 {
	clipped := make([][2]float64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := math.Max(iv[0], lo), math.Min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]float64{a, b})
		}
	}
	sort.Slice(clipped, func(i, k int) bool { return clipped[i][0] < clipped[k][0] })
	total, curLo, curHi := 0.0, 0.0, math.Inf(-1)
	for _, iv := range clipped {
		if iv[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = math.Max(curHi, iv[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}

// writeNDJSON writes one span per line.
func writeNDJSON(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
