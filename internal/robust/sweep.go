package robust

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/par"
	"repro/internal/rng"
)

// Mode selects the sweep engine's evaluation path.
type Mode int

// Evaluation paths.
const (
	// ModeAuto uses the incremental union-find path when the metric set
	// is exactly {"lcc"} (bit-for-bit identical, near-linear in the
	// whole schedule) and the masked path otherwise.
	ModeAuto Mode = iota
	// ModeMasked re-evaluates every metric's masked accumulator at each
	// removal fraction — one masked traversal per metric per step.
	ModeMasked
	// ModeIncremental replays the whole removal schedule backwards
	// through a reverse union-find, computing the full LCC trajectory in
	// one O((n+m) α) pass. Only the "lcc" metric supports it.
	ModeIncremental
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeMasked:
		return "masked"
	case ModeIncremental:
		return "incremental"
	default:
		return "auto"
	}
}

// ParseMode maps a mode name ("auto", "masked", "incremental") to its
// Mode, wrapping errs.ErrBadParam for unknown names.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "", "auto":
		return ModeAuto, nil
	case "masked":
		return ModeMasked, nil
	case "incremental":
		return ModeIncremental, nil
	default:
		return 0, errs.BadParamf("robust: unknown evaluation mode %q", name)
	}
}

// SweepSpec declares one robustness sweep: a registered attack with
// parameters, the removal fractions to report, and the metric set to
// evaluate along the schedule.
type SweepSpec struct {
	// Attack is an attackreg registry name (aliases accepted; default
	// "random-failure").
	Attack string
	// Params are the attack's parameters, validated against its specs.
	Params attackreg.Params
	// Fracs are the removal fractions in [0, 1]; 1 removes the entire
	// schedule. Fractions are of nodes for node-targeted attacks and of
	// edges for edge-targeted ones.
	Fracs []float64
	// Trials averages randomized schedules (deterministic attacks always
	// use a single pass; <= 0 means 1).
	Trials int
	// Metrics is the masked metric set to trace (default {"lcc"}).
	// Edge-targeted attacks and the incremental path support only
	// {"lcc"}.
	Metrics []string
	// Mode selects the evaluation path (default ModeAuto).
	Mode Mode
	// Workers is the sweep's worker budget (<= 0 means GOMAXPROCS),
	// split between the trial fan-out and each trial's schedule
	// computation; curves are byte-identical for any value.
	Workers int
}

// RunSweep executes spec against g with a background context; see
// RunSweepContext.
func RunSweep(g *graph.Graph, spec SweepSpec, seed int64) ([]MetricCurve, error) {
	return RunSweepContext(context.Background(), g, nil, spec, seed)
}

// RunSweepContext is the sweep engine: it resolves the attack in the
// registry, computes one removal schedule per trial, and traces the
// metric set along it — through masked accumulators re-reading the
// shared snapshot in place, or through the reverse union-find
// trajectory when only the LCC curve is needed. Trials fan out across
// the worker pool and are reduced in trial order, so every curve is
// byte-identical for any worker count and — pinned by the parity tests
// — for either evaluation path. Pass the CSR from an earlier Freeze of
// g to skip re-freezing (nil freezes internally). Invalid specs wrap
// errs.ErrBadParam; cancellation wraps errs.ErrCanceled.
func RunSweepContext(ctx context.Context, g *graph.Graph, c *graph.CSR, spec SweepSpec, seed int64) ([]MetricCurve, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errs.BadParamf("robust: empty graph")
	}
	if err := ValidateFracs(spec.Fracs); err != nil {
		return nil, err
	}
	atk, err := attackreg.Lookup(spec.Attack)
	if err != nil {
		return nil, err
	}
	resolved, err := attackreg.Resolve(atk, spec.Params)
	if err != nil {
		return nil, err
	}
	metricNames := spec.Metrics
	if len(metricNames) == 0 {
		metricNames = []string{"lcc"}
	}
	onlyLCC := len(metricNames) == 1 && metricNames[0] == "lcc"
	var incremental bool
	switch spec.Mode {
	case ModeAuto:
		incremental = onlyLCC
	case ModeIncremental:
		if !onlyLCC {
			return nil, errs.BadParamf("robust: incremental path traces only the \"lcc\" metric, got %v", metricNames)
		}
		incremental = true
	case ModeMasked:
	default:
		return nil, errs.BadParamf("robust: unknown evaluation mode %d", spec.Mode)
	}
	if atk.Target() == attackreg.Edges && !onlyLCC {
		return nil, errs.BadParamf("robust: edge-removal attack %q supports only the \"lcc\" metric, got %v", atk.Name(), metricNames)
	}
	// Resolve the metric set up front; each trial builds its own
	// accumulators and reuses them across every step of its schedule.
	var mset *metricreg.MaskedSet
	if !incremental && atk.Target() == attackreg.Nodes {
		if mset, err = metricreg.ResolveMasked(metricNames, seed); err != nil {
			return nil, err
		}
	}
	trials := spec.Trials
	if atk.Caps()&attackreg.CapRandomized == 0 {
		trials = 1
	}
	if trials < 1 {
		trials = 1
	}
	total := n
	if atk.Target() == attackreg.Edges {
		total = g.NumEdges()
	}
	// Visit fractions in increasing removal-count order so each trial's
	// mask only ever grows; results land at the caller's original index.
	byK := make([]int, len(spec.Fracs))
	for i := range byK {
		byK[i] = i
	}
	sort.SliceStable(byK, func(a, b int) bool { return spec.Fracs[byK[a]] < spec.Fracs[byK[b]] })

	if c == nil {
		c = g.Freeze()
	}
	perTrial := make([][][]float64, trials)
	outer, inner := par.Split(spec.Workers, trials)
	err = par.ForEachErr(outer, trials, func(trial int) error {
		if err := errs.Ctx(ctx); err != nil {
			return fmt.Errorf("robust: sweep trial %d: %w", trial, err)
		}
		order, err := atk.Schedule(ctx, g, resolved, rng.Derive(seed, trial), inner)
		if err != nil {
			return fmt.Errorf("robust: sweep trial %d: attack %q: %w", trial, atk.Name(), err)
		}
		if err := checkSchedule(order, total, atk.Name()); err != nil {
			return err
		}
		vals := make([][]float64, len(metricNames))
		for mi := range vals {
			vals[mi] = make([]float64, len(spec.Fracs))
		}
		switch {
		case incremental:
			sizes := lccNodeTrajectory
			if atk.Target() == attackreg.Edges {
				sizes = lccEdgeTrajectory
			}
			traj := sizes(c, order)
			for _, i := range byK {
				k := int(spec.Fracs[i] * float64(total))
				vals[0][i] = float64(traj[k]) / float64(n)
			}
		case atk.Target() == attackreg.Nodes:
			accs, err := mset.NewAccumulators()
			if err != nil {
				return err
			}
			ws := graph.GetWorkspace(n)
			defer ws.Release()
			removed := make([]bool, n)
			prev := 0
			for _, i := range byK {
				k := int(spec.Fracs[i] * float64(total))
				for ; prev < k; prev++ {
					removed[order[prev]] = true
				}
				for mi, acc := range accs {
					vals[mi][i] = acc.EvaluateMasked(ws, c, removed)
				}
			}
		default: // edge-targeted, masked
			ws := graph.GetWorkspace(n)
			defer ws.Release()
			removedEdge := make([]bool, total)
			prev := 0
			for _, i := range byK {
				k := int(spec.Fracs[i] * float64(total))
				for ; prev < k; prev++ {
					removedEdge[order[prev]] = true
				}
				vals[0][i] = float64(c.LargestComponentEdgeMasked(ws, removedEdge)) / float64(n)
			}
		}
		perTrial[trial] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MetricCurve, len(metricNames))
	for mi, name := range metricNames {
		out[mi] = MetricCurve{Name: name, Values: make([]float64, len(spec.Fracs))}
	}
	for _, vals := range perTrial {
		for mi := range vals {
			for i, v := range vals[mi] {
				out[mi].Values[i] += v
			}
		}
	}
	for mi := range out {
		for i := range out[mi].Values {
			out[mi].Values[i] /= float64(trials)
		}
	}
	return out, nil
}

// ValidateFracs is the one shared removal-fraction check: every sweep
// fraction must be a real number in [0, 1]. NaN is rejected explicitly
// — it fails both range comparisons, so an inline `f < 0 || f > 1`
// check silently admits it and the schedule prefix `int(NaN * total)`
// is implementation-defined garbage. Both the sweep engine and the
// scenario attack-stage validation call this; errors wrap
// errs.ErrBadParam.
func ValidateFracs(fracs []float64) error {
	for _, f := range fracs {
		if math.IsNaN(f) || f < 0 || f > 1 {
			return errs.BadParamf("robust: removal fraction %v out of [0,1]", f)
		}
	}
	return nil
}

// checkSchedule rejects schedules that are not complete permutations of
// [0, total) — a misbehaving custom attack surfaces as ErrBadParam, not
// an index panic or a silently wrong curve.
func checkSchedule(order []int, total int, name string) error {
	if len(order) != total {
		return errs.BadParamf("robust: attack %q schedule has %d entries, want %d", name, len(order), total)
	}
	seen := make([]bool, total)
	for _, v := range order {
		if v < 0 || v >= total || seen[v] {
			return errs.BadParamf("robust: attack %q schedule is not a permutation of [0,%d)", name, total)
		}
		seen[v] = true
	}
	return nil
}
