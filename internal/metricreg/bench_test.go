package metricreg

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/params"
)

// The fused-schedule claim, measured: evaluating three BFS-consuming
// metrics as one set shares a single sweep over the union of their
// sources, where independent evaluation re-walks the graph per metric.
// Run with -benchmem: the fused variant does ~1/3 the traversals and
// allocations of the unfused one on the same metric set.

func BenchmarkEvaluateFusedBFSSet(b *testing.B) {
	g := ladder(2000, 13)
	set := []Selection{
		{Name: "expansion", Params: params.Params{"maxh": 4, "sources": 0}},
		{Name: "avg-hop-length"},
		{Name: "diameter"},
	}
	src := NewSource(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Default().Evaluate(context.Background(), src, set, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateUnfusedBFSSet(b *testing.B) {
	g := ladder(2000, 13)
	set := []Selection{
		{Name: "expansion", Params: params.Params{"maxh": 4, "sources": 0}},
		{Name: "avg-hop-length"},
		{Name: "diameter"},
	}
	src := NewSource(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sel := range set {
			if _, err := Default().Evaluate(context.Background(), src, []Selection{sel}, Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEvaluateHopSweepBA3k times the exact hop metrics of the
// profile workload: avg-hop-length and diameter over all 3000 sources
// of a BA n=3000, m=2 graph, one fused multi-source sweep.
func BenchmarkEvaluateHopSweepBA3k(b *testing.B) {
	g, err := gen.BarabasiAlbert(3000, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := NewSource(g, nil)
	src.CSR()
	set := []Selection{{Name: "avg-hop-length"}, {Name: "diameter"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Default().Evaluate(context.Background(), src, set, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateProfileSet times the scenario engine's default
// Measure workload through the registry.
func BenchmarkEvaluateProfileSet(b *testing.B) {
	g := ladder(1000, 11)
	src := NewSource(g, nil)
	set := []Selection{
		{Name: "expansion", Params: params.Params{"maxh": 3, "sources": 50}},
		{Name: "resilience", Params: params.Params{"steps": 10, "trials": 3}},
		{Name: "distortion", Params: params.Params{"sample": 2000}},
		{Name: "hierarchy-depth"},
		{Name: "spectral-gap", Params: params.Params{"iters": 150}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Default().Evaluate(context.Background(), src, set, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
