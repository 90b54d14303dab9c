package stats_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
)

// scanMax is the auto scans' upper xmin bound for maxXMin.
func scanMax(degrees []int, maxXMin int) int {
	maxDeg := 0
	for _, d := range degrees {
		maxDeg = max(maxDeg, d)
	}
	if maxXMin <= 0 || maxXMin > maxDeg {
		return maxDeg
	}
	return maxXMin
}

// bruteFitPowerLawAuto is the reference xmin scan: one full FitPowerLaw
// per candidate.
func bruteFitPowerLawAuto(degrees []int, maxXMin int) stats.PowerLawFit {
	if len(degrees) == 0 {
		return stats.PowerLawFit{}
	}
	best := stats.PowerLawFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= scanMax(degrees, maxXMin); xmin++ {
		f := stats.FitPowerLaw(degrees, xmin)
		if f.NTail < 10 {
			break
		}
		if stats.HasTwoDistinctAtLeast(degrees, xmin) && f.KS < best.KS {
			best = f
		}
	}
	if math.IsInf(best.KS, 1) {
		return stats.FitPowerLaw(degrees, 1)
	}
	return best
}

// bruteFitExponentialAuto is the reference xmin scan for the geometric
// tail: one full FitExponential per candidate.
func bruteFitExponentialAuto(degrees []int, maxXMin int) stats.ExponentialFit {
	if len(degrees) == 0 {
		return stats.ExponentialFit{}
	}
	best := stats.ExponentialFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= scanMax(degrees, maxXMin); xmin++ {
		f := stats.FitExponential(degrees, xmin)
		if f.NTail < 10 {
			break
		}
		if !math.IsInf(f.Lambda, 1) && stats.HasTwoDistinctAtLeast(degrees, xmin) && f.KS < best.KS {
			best = f
		}
	}
	if math.IsInf(best.KS, 1) {
		return stats.FitExponential(degrees, 1)
	}
	return best
}

// TestAutoScansMatchBruteForce pins the in-place tail scan of
// FitPowerLawAuto, FitExponentialAuto and ClassifyTail to the
// per-candidate reference scan, field by field with ==, on generated
// topologies' degree sequences and on the synthetic samples.
func TestAutoScansMatchBruteForce(t *testing.T) {
	hot := func(seed int64) (*graph.Graph, error) {
		g, _, err := core.GrowHOT(core.HOTConfig{
			N: 2000, Seed: seed, LinksPerArrival: 2,
			Terms: []core.ObjectiveTerm{core.DistanceTerm{Weight: 8}, core.CentralityTerm{Weight: 1}},
		})
		return g, err
	}
	r := rng.New(15)
	uniform := make([]int, 500)
	for i := range uniform {
		uniform[i] = 1 + r.Intn(20)
	}
	constant := make([]int, 50)
	for i := range constant {
		constant[i] = 3
	}
	samples := map[string][]int{
		"power-law":  stats.SamplePowerLaw(13, 5000, 2, 2.6),
		"geometric":  stats.SampleGeometric(11, 10000, 1, 0.4),
		"mixture":    append(stats.SampleGeometric(12, 5000, 1, 0.6), 40, 45, 50),
		"uniform":    uniform,
		"constant":   constant,
		"with-zeros": append([]int{0, 0, -1}, stats.SampleGeometric(16, 300, 1, 0.3)...),
		"short":      {1, 2, 3},
		"empty":      nil,
	}
	graphs := map[string]func() (*graph.Graph, error){
		"ba":            func() (*graph.Graph, error) { return gen.BarabasiAlbert(3000, 2, 1) },
		"er-gnm":        func() (*graph.Graph, error) { return gen.ErdosRenyiGNM(3000, 6000, 2) },
		"waxman":        func() (*graph.Graph, error) { return gen.Waxman(800, 0.15, 0.4, 3) },
		"fkp-tree":      func() (*graph.Graph, error) { return core.FKP(core.FKPConfig{N: 3000, Alpha: 8, Seed: 4}) },
		"fkp-power-law": func() (*graph.Graph, error) { return core.FKP(core.FKPConfig{N: 3000, Alpha: 20, Seed: 5}) },
		"hot":           func() (*graph.Graph, error) { return hot(6) },
	}
	for name, build := range graphs {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		samples[name] = g.Degrees()
	}
	for name, deg := range samples {
		for _, maxXMin := range []int{0, 5} {
			t.Run(fmt.Sprintf("%s/max%d", name, maxXMin), func(t *testing.T) {
				pl, wantPL := stats.FitPowerLawAuto(deg, maxXMin), bruteFitPowerLawAuto(deg, maxXMin)
				if pl != wantPL {
					t.Errorf("FitPowerLawAuto = %+v, brute force %+v", pl, wantPL)
				}
				exp, wantExp := stats.FitExponentialAuto(deg, maxXMin), bruteFitExponentialAuto(deg, maxXMin)
				if exp != wantExp {
					t.Errorf("FitExponentialAuto = %+v, brute force %+v", exp, wantExp)
				}
				if maxXMin != 0 {
					return
				}
				got, want := stats.ClassifyTail(deg), stats.ClassifyFits(deg, wantPL, wantExp)
				if got != want {
					t.Errorf("ClassifyTail = %+v, brute force %+v", got, want)
				}
			})
		}
	}
}
