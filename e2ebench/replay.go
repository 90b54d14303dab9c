package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/metricreg"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/robust"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trafficreg"
)

// Span names. Wrapper spans (batch, unit) hold no layer's work; every
// other span is a stage whose self time counts toward trace coverage.
const (
	spanBatch = "scenario.batch"
	spanUnit  = "scenario.unit"
)

// layerCounts are the counts the traced pipeline takes at the same
// boundaries as its spans.
type layerCounts struct {
	bfsRuns, bfsRequested int   // metricreg.EvalStats over every Evaluate
	routeSources          int   // distinct shortest-path roots
	timelineEvents        int   // connectivity events replayed by robust
	timelineTrafficRows   int   // capacity-set/demand-switch re-evaluations
	csrBytes              int64 // CSR.MemBytes of every generated snapshot
}

// tracedEngine replays scenario.Engine.RunBatch serially, one unit after
// another in unit order, calling each layer's public function in the
// order Engine.runRep calls it, with a span around each call. Like the
// engine it generates each topology identity once and reuses it.
type tracedEngine struct {
	reg    *scenario.Registry
	rec    *recorder
	snaps  map[string]snapshot
	counts layerCounts
}

type snapshot struct {
	g *graph.Graph
	c *graph.CSR
}

func newTracedEngine() *tracedEngine {
	return &tracedEngine{reg: scenario.Default(), snaps: map[string]snapshot{}}
}

// runBatch returns the batch's results and their encoding as the CLI
// prints them with -format json; unit numbers continue from unit0.
func (t *tracedEngine) runBatch(ctx context.Context, scs []scenario.Scenario, unit0 int) ([]*scenario.Result, []byte, error) {
	b := t.rec.begin(spanBatch, 0, -1)
	defer t.rec.end(b)
	results := make([]*scenario.Result, len(scs))
	u := unit0
	for si := range scs {
		sc := &scs[si]
		results[si] = &scenario.Result{Scenario: *sc, Reps: make([]scenario.RepResult, sc.NumReps())}
		for rep := range results[si].Reps {
			rr, err := t.runRep(ctx, sc, rep, b, u)
			if err != nil {
				return nil, nil, fmt.Errorf("traced %s rep %d: %w", sc.Name, rep, err)
			}
			results[si].Reps[rep] = rr
			u++
		}
	}
	var out []byte
	err := t.rec.call("scenario.format", b, -1, func(int) error {
		var err error
		out, err = formatResults(results)
		return err
	})
	return results, out, err
}

// formatResults renders the table (as the CLI's default format does)
// and returns the JSON encoding the CLI prints with -format json.
func formatResults(results []*scenario.Result) ([]byte, error) {
	var table bytes.Buffer
	for _, r := range results {
		table.WriteString(r.Format())
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// runRep replays one (scenario, rep) unit as Engine.runRep runs it.
func (t *tracedEngine) runRep(ctx context.Context, sc *scenario.Scenario, rep, parent, unit int) (scenario.RepResult, error) {
	u := t.rec.begin(spanUnit, parent, unit)
	defer t.rec.end(u)
	seed := sc.SeedFor(rep)
	snap, err := t.snapshot(ctx, sc, seed, u, unit)
	if err != nil {
		return scenario.RepResult{}, err
	}
	g, c := snap.g, snap.c
	rr := scenario.RepResult{Seed: seed, Nodes: g.NumNodes(), Edges: g.NumEdges()}

	if m := sc.Measure; m != nil {
		err := t.rec.call("scenario.measure", u, unit, func(id int) error {
			return t.measure(ctx, g, c, m, seed, &rr, id, unit)
		})
		if err != nil {
			return rr, err
		}
	}
	if rt := sc.Route; rt != nil {
		if err := t.route(ctx, g, c, rt, seed, &rr, u, unit); err != nil {
			return rr, err
		}
	}
	if ts := sc.Traffic; ts != nil {
		err := t.rec.call("scenario.traffic", u, unit, func(id int) error {
			sites, defCap := ts.Sites, ts.Capacity
			if sites <= 0 {
				sites = 16
			}
			if defCap == 0 {
				defCap = 1
			}
			sum, err := t.trafficSummary(ctx, g, c, trafficreg.Selection{Name: ts.Model, Params: ts.Params}, sites, defCap, seed, id, unit)
			rr.Traffic = sum
			return err
		})
		if err != nil {
			return rr, err
		}
	}
	if at := sc.Attack; at != nil {
		fracs, trials := at.Fracs, at.Trials
		if len(fracs) == 0 {
			fracs = []float64{0.05, 0.1, 0.2}
		}
		if trials <= 0 {
			trials = 3
		}
		var curves []robust.MetricCurve
		err := t.rec.call("robust.sweep", u, unit, func(int) error {
			var err error
			curves, err = robust.RunSweepContext(ctx, g, c, robust.SweepSpec{
				Attack: at.Strategy, Params: at.Params, Fracs: fracs, Trials: trials, Workers: 1,
			}, seed)
			return err
		})
		if err != nil {
			return rr, err
		}
		rr.Attack = make([]robust.SweepPoint, len(fracs))
		for i, f := range fracs {
			rr.Attack[i] = robust.SweepPoint{FracRemoved: f, LCCFrac: curves[0].Values[i]}
		}
	}
	if tl := sc.Timeline; tl != nil {
		err := t.rec.call("scenario.timeline", u, unit, func(id int) error {
			pts, err := t.timeline(ctx, g, c, sc, tl, seed, id, unit)
			rr.Timeline = pts
			return err
		})
		if err != nil {
			return rr, err
		}
	}
	return rr, nil
}

// measure mirrors the engine's measure stage: the profile, the degree
// summary, then the selected metrics.
func (t *tracedEngine) measure(ctx context.Context, g *graph.Graph, c *graph.CSR, m *scenario.MeasureSpec, seed int64, rr *scenario.RepResult, parent, unit int) error {
	if m.Profile || (!m.Degrees && len(m.Metrics) == 0) {
		err := t.rec.call("metrics.profile", parent, unit, func(int) error {
			prof, err := metrics.ProfileContext(ctx, g, c, seed, 1)
			rr.Profile = &prof
			return err
		})
		if err != nil {
			return err
		}
	}
	if m.Degrees {
		_ = t.rec.call("stats.degrees", parent, unit, func(int) error {
			ds := stats.AnalyzeDegrees(g)
			rr.Degrees = &scenario.DegreeSummary{
				MeanDegree: ds.MeanDegree,
				MaxDegree:  ds.MaxDegree,
				Tail:       ds.Classification.Kind.String(),
			}
			return nil
		})
	}
	if len(m.Metrics) > 0 {
		vals, err := t.evaluate(ctx, "metricreg.evaluate", parent, unit, metricreg.NewSource(g, c), m.Metrics, seed)
		if err != nil {
			return err
		}
		rr.Metrics = vals
	}
	return nil
}

// snapshot generates and freezes one topology identity, or reuses it.
func (t *tracedEngine) snapshot(ctx context.Context, sc *scenario.Scenario, seed int64, parent, unit int) (snapshot, error) {
	var snap snapshot
	err := t.rec.call("scenario.snapshot", parent, unit, func(id int) error {
		gen, err := t.reg.Lookup(sc.Generate.Model)
		if err != nil {
			return err
		}
		p, err := scenario.Resolve(gen, sc.Generate.Params)
		if err != nil {
			return err
		}
		p["seed"] = float64(seed)
		key, err := json.Marshal(struct {
			Model  string
			Params scenario.Params
		}{sc.Generate.Model, p})
		if err != nil {
			return err
		}
		if s, ok := t.snaps[string(key)]; ok {
			snap = s
			return nil
		}
		err = t.rec.call("gen.generate", id, unit, func(int) error {
			var err error
			snap.g, err = t.reg.GenerateByName(ctx, sc.Generate.Model, p)
			return err
		})
		if err != nil {
			return err
		}
		_ = t.rec.call("graph.freeze", id, unit, func(int) error {
			snap.c = snap.g.Freeze()
			return nil
		})
		t.counts.csrBytes += snap.c.MemBytes()
		t.snaps[string(key)] = snap
		return nil
	})
	return snap, err
}

func (t *tracedEngine) evaluate(ctx context.Context, name string, parent, unit int, src *metricreg.Source, set []metricreg.Selection, seed int64) (map[string]metricreg.Value, error) {
	var st metricreg.EvalStats
	var vals map[string]metricreg.Value
	err := t.rec.call(name, parent, unit, func(int) error {
		var err error
		vals, err = metricreg.Default().Evaluate(ctx, src, set, metricreg.Options{Workers: 1, Seed: seed, Stats: &st})
		return err
	})
	t.counts.bfsRuns += st.BFSRuns
	t.counts.bfsRequested += st.BFSRequested
	return vals, err
}

// route mirrors the engine's route stage: seeded random demands, then
// one shortest-path routing call. Every generated spec leaves the mode
// at its default, so the other modes are not replayed.
func (t *tracedEngine) route(ctx context.Context, g *graph.Graph, c *graph.CSR, rt *scenario.RouteSpec, seed int64, rr *scenario.RepResult, parent, unit int) error {
	return t.rec.call("scenario.route", parent, unit, func(id int) error {
		if rt.Mode != "" && rt.Mode != "shortest" {
			return fmt.Errorf("route mode %q is not replayed", rt.Mode)
		}
		demands := randomDemands(g.NumNodes(), rt.Demands, rt.Volume, seed)
		srcs := map[int]bool{}
		for _, d := range demands {
			srcs[d.Src] = true
		}
		t.counts.routeSources += len(srcs)
		return t.rec.call("routing.route", id, unit, func(int) error {
			res, err := routing.RouteShortestPathsContext(ctx, g, c, demands)
			if err != nil {
				return err
			}
			rr.Route = &scenario.RouteSummary{
				Mode:           "shortest",
				Delivered:      res.Delivered,
				Dropped:        res.Dropped,
				MaxUtilization: finite(res.MaxUtilization),
				AvgHops:        res.AvgHops,
			}
			return nil
		})
	})
}

// trafficSummary mirrors the engine's traffic back half: prepare the
// demand set, then evaluate the CapTraffic metric set on it.
func (t *tracedEngine) trafficSummary(ctx context.Context, g *graph.Graph, c *graph.CSR, sel trafficreg.Selection, sites int, defCap float64, seed int64, parent, unit int) (*scenario.TrafficSummary, error) {
	var eval *graph.Graph
	var demands []routing.Demand
	err := t.rec.call("trafficreg.prepare", parent, unit, func(int) error {
		var err error
		eval, demands, sites, err = trafficreg.PrepareGraphTraffic(ctx, g, sel, sites, defCap, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	src := metricreg.NewSource(eval, c)
	src.SetTraffic(demands)
	vals, err := t.evaluate(ctx, "metricreg.traffic", parent, unit, src, []metricreg.Selection{
		{Name: "throughput"}, {Name: "max-utilization"}, {Name: "jain"}, {Name: "delivered-frac"},
	}, seed)
	if err != nil {
		return nil, err
	}
	offered := 0.0
	for _, d := range demands {
		offered += d.Volume
	}
	return &scenario.TrafficSummary{
		Model:          trafficreg.Canonical(sel.Name),
		Sites:          sites,
		Demands:        len(demands),
		Offered:        offered,
		Throughput:     vals["throughput"].Scalar,
		DeliveredFrac:  vals["delivered-frac"].Scalar,
		MaxUtilization: vals["max-utilization"].Scalar,
		Jain:           vals["jain"].Scalar,
	}, nil
}

// timeline mirrors the engine's temporal stage: one robust timeline
// call over the connectivity events, then a traffic re-evaluation per
// capacity-set/demand-switch row.
func (t *tracedEngine) timeline(ctx context.Context, g *graph.Graph, c *graph.CSR, sc *scenario.Scenario, tl *scenario.TimelineSpec, seed int64, parent, unit int) ([]scenario.TimelinePoint, error) {
	repeat := max(tl.Repeat, 1)
	total := len(tl.Events) * repeat
	mode, err := robust.ParseTimelineMode(tl.Mode)
	if err != nil {
		return nil, err
	}
	metricNames := tl.Metrics
	if len(metricNames) == 0 {
		metricNames = []string{"lcc"}
	}
	conn := make([]robust.TimelineEvent, 0, total)
	prefix := make([]int, total)
	for i := 0; i < total; i++ {
		ev := &tl.Events[i%len(tl.Events)]
		switch {
		case ev.Event == "fail-node":
			conn = append(conn, robust.TimelineEvent{Op: robust.OpFailNode, ID: *ev.Node})
		case ev.Event == "fail-edge":
			conn = append(conn, robust.TimelineEvent{Op: robust.OpFailEdge, ID: *ev.Edge})
		case ev.Event == "repair" && ev.Node != nil:
			conn = append(conn, robust.TimelineEvent{Op: robust.OpRepairNode, ID: *ev.Node})
		case ev.Event == "repair":
			conn = append(conn, robust.TimelineEvent{Op: robust.OpRepairEdge, ID: *ev.Edge})
		}
		prefix[i] = len(conn)
	}
	t.counts.timelineEvents += len(conn)
	var curves []robust.MetricCurve
	err = t.rec.call("robust.timeline", parent, unit, func(int) error {
		var err error
		curves, err = robust.RunTimelineContext(ctx, c, conn, metricNames, mode, seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	sel := trafficreg.Selection{}
	sites, defCap := 16, 1.0
	if ts := sc.Traffic; ts != nil {
		sel = trafficreg.Selection{Name: ts.Model, Params: ts.Params}
		if ts.Sites > 0 {
			sites = ts.Sites
		}
		if ts.Capacity != 0 {
			defCap = ts.Capacity
		}
	}
	trafficG, cloned := g, false
	pts := make([]scenario.TimelinePoint, total)
	for i := 0; i < total; i++ {
		ev := &tl.Events[i%len(tl.Events)]
		pt := scenario.TimelinePoint{Index: i, Event: ev.Event, Node: ev.Node, Edge: ev.Edge}
		if ev.At != nil {
			v := *ev.At
			pt.Time = &v
		} else if ev.Step != nil {
			v := float64(*ev.Step)
			pt.Time = &v
		}
		pt.Metrics = make(map[string]float64, len(curves))
		for mi := range curves {
			pt.Metrics[curves[mi].Name] = curves[mi].Values[prefix[i]]
		}
		if ev.Event != "capacity-set" && ev.Event != "demand-switch" {
			pts[i] = pt
			continue
		}
		t.counts.timelineTrafficRows++
		err := t.rec.call("scenario.timeline_traffic", parent, unit, func(id int) error {
			if ev.Event == "capacity-set" {
				if *ev.Edge >= g.NumEdges() {
					return fmt.Errorf("timeline event %d: edge %d out of range", i, *ev.Edge)
				}
				if !cloned {
					trafficG, cloned = g.Clone(), true
				}
				trafficG.Edge(*ev.Edge).Capacity = *ev.Capacity
			} else {
				sel = trafficreg.Selection{Name: ev.Model, Params: ev.Params}
			}
			sum, err := t.trafficSummary(ctx, trafficG, c, sel, sites, defCap, seed, id, unit)
			pt.Traffic = sum
			return err
		})
		if err != nil {
			return nil, err
		}
		pts[i] = pt
	}
	return pts, nil
}

// finite clamps +Inf/NaN utilization to -1, as the engine does.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// randomDemands draws the route stage's seeded demands exactly as the
// engine does.
func randomDemands(n, count int, volume float64, seed int64) []routing.Demand {
	if n < 2 || count < 1 {
		return nil
	}
	if volume <= 0 {
		volume = 1
	}
	r := rng.New(rng.Derive(seed, 7001))
	out := make([]routing.Demand, 0, count)
	for len(out) < count {
		s, d := r.Intn(n), r.Intn(n)
		if s == d {
			continue
		}
		out = append(out, routing.Demand{Src: s, Dst: d, Volume: volume})
	}
	return out
}

// stageDiffs compares the traced results with the engine's, stage by
// stage, and names every (scenario, rep, stage) that differs.
func stageDiffs(traced, engine []*scenario.Result) []string {
	var out []string
	if len(traced) != len(engine) {
		return []string{fmt.Sprintf("scenario count %d vs %d", len(traced), len(engine))}
	}
	same := func(a, b any) bool {
		x, errA := json.Marshal(a)
		y, errB := json.Marshal(b)
		return errA == nil && errB == nil && bytes.Equal(x, y)
	}
	for si := range traced {
		if len(traced[si].Reps) != len(engine[si].Reps) {
			out = append(out, fmt.Sprintf("scenario %d: rep count", si))
			continue
		}
		for rep := range traced[si].Reps {
			a, b := &traced[si].Reps[rep], &engine[si].Reps[rep]
			for _, st := range []struct {
				name string
				a, b any
			}{
				{"snapshot", [3]int64{a.Seed, int64(a.Nodes), int64(a.Edges)}, [3]int64{b.Seed, int64(b.Nodes), int64(b.Edges)}},
				{"profile", a.Profile, b.Profile},
				{"degrees", a.Degrees, b.Degrees},
				{"metrics", a.Metrics, b.Metrics},
				{"route", a.Route, b.Route},
				{"traffic", a.Traffic, b.Traffic},
				{"attack", a.Attack, b.Attack},
				{"timeline", a.Timeline, b.Timeline},
			} {
				if !same(st.a, st.b) {
					out = append(out, fmt.Sprintf("scenario %d rep %d: %s", si, rep, st.name))
				}
			}
		}
	}
	return out
}

// traceInput is the work a traced run replays and what it must equal.
type traceInput struct {
	rec         *recorder
	warm        [][]scenario.Scenario // replayed untraced first, filling the snapshot cache
	batches     [][]scenario.Scenario
	engine      [][]*scenario.Result // the engine's results per batch
	want        [][]byte             // their -format json encoding
	untraced    float64              // wall of the same work on the engine, untraced
	minCoverage float64              // stage self times must cover this share of the traced wall
}

// tracedRun replays the batches through the traced pipeline, fails the
// run where any stage's result differs from the engine's RepResult, and
// sets the per-layer metrics. Times are sums of span self times over the
// replayed work.
func tracedRun(ctx context.Context, res *result, in traceInput) error {
	te := newTracedEngine()
	for _, scs := range in.warm {
		if _, _, err := te.runBatch(ctx, scs, 0); err != nil {
			return err
		}
	}
	te.rec, te.counts = in.rec, layerCounts{}
	first := len(in.rec.spans)
	traced := make([][]*scenario.Result, len(in.batches))
	encs := make([][]byte, len(in.batches))
	unit := 0
	t0 := time.Now()
	for i, scs := range in.batches {
		var err error
		if traced[i], encs[i], err = te.runBatch(ctx, scs, unit); err != nil {
			return err
		}
		unit += units(scs)
	}
	wall := time.Since(t0).Seconds()

	for i := range in.batches {
		for _, d := range stageDiffs(traced[i], in.engine[i]) {
			res.fail("traced stage differs from the engine's RepResult: batch %d, %s", i, d)
		}
		if !bytes.Equal(encs[i], in.want[i]) {
			res.fail("traced batch %d encodes differently from the engine's results", i)
		}
	}
	fillSelf(in.rec.spans)
	res.spans = in.rec.spans
	mine := in.rec.spans[first:]
	self := selfByName(mine)
	stages, measure, timelineTraffic := 0.0, 0.0, 0.0
	for _, s := range mine {
		if s.Name != spanBatch && s.Name != spanUnit {
			stages += s.Self
		}
		switch s.Name {
		case "scenario.measure":
			measure += s.End - s.Start
		case "scenario.timeline_traffic":
			timelineTraffic += s.End - s.Start
		}
	}
	coverage := stages / wall
	if coverage < in.minCoverage {
		res.fail("trace coverage %.3f below %.2f", coverage, in.minCoverage)
	}
	note := fmt.Sprintf("self time summed over %d traced unit(s)", unit)
	for _, m := range []struct{ metric, span string }{
		{"gen.generate_s", "gen.generate"},
		{"graph.freeze_s", "graph.freeze"},
		{"stats.degrees_s", "stats.degrees"},
		{"metrics.profile_s", "metrics.profile"},
		{"metricreg.evaluate_s", "metricreg.evaluate"},
		{"metricreg.traffic_s", "metricreg.traffic"},
		{"routing.route_s", "routing.route"},
		{"trafficreg.prepare_s", "trafficreg.prepare"},
		{"robust.sweep_s", "robust.sweep"},
		{"robust.timeline_s", "robust.timeline"},
		{"scenario.format_s", "scenario.format"},
	} {
		res.set(m.metric, self[m.span], "s", note)
	}
	c := te.counts
	res.set("scenario.measure_s", measure, "s", "measure stage (profile, degrees, metrics), inclusive time")
	res.set("scenario.timeline_traffic_s", timelineTraffic, "s", "capacity-set/demand-switch re-evaluations incl. Graph.Clone, inclusive time")
	res.set("scenario.timeline_traffic_rows", float64(c.timelineTrafficRows), "count", "capacity-set/demand-switch rows")
	res.set("graph.csr_bytes", float64(c.csrBytes), "bytes", "CSR.MemBytes summed over generated snapshots")
	res.set("metricreg.bfs_runs", float64(c.bfsRuns), "count", "EvalStats.BFSRuns summed over evaluations")
	res.set("metricreg.bfs_requested", float64(c.bfsRequested), "count", "EvalStats.BFSRequested summed over evaluations")
	res.set("routing.sources", float64(c.routeSources), "count", "distinct shortest-path roots of the route stage")
	res.set("robust.timeline_events", float64(c.timelineEvents), "count", "connectivity events replayed by the timeline engine")
	res.set("trace.overhead_s", wall-in.untraced, "s", fmt.Sprintf("traced %.4f s - untraced %.4f s, in-process", wall, in.untraced))
	res.set("trace.coverage", coverage, "ratio", fmt.Sprintf("stage self times / traced wall %.4f s", wall))
	return nil
}
