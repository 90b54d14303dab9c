package main

import (
	"encoding/json"
	"math/rand"

	"repro/internal/scenario"
)

// Every spec is drawn from the benchmark's -seed; the program under
// test receives only the generated JSON.

// topoSeed draws a topology seed from r.
func topoSeed(r *rand.Rand) int64 { return 1 + r.Int63n(1<<40) }

// profileBA3k is one scenario, one rep: a BA graph (n=3000, m=2) with
// the full profile, degrees, exact avg-hop-length and diameter (every
// node a BFS source), clustering and assortativity.
func profileBA3k(seed int64) []scenario.Scenario {
	r := rand.New(rand.NewSource(seed))
	return []scenario.Scenario{{
		Name:     "profile-ba3k",
		Generate: scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": 3000, "m": 2, "seed": float64(topoSeed(r))}},
		Measure: &scenario.MeasureSpec{
			Profile: true,
			Degrees: true,
			Metrics: []scenario.MetricSelection{
				{Name: "avg-hop-length"}, {Name: "diameter"}, {Name: "clustering"}, {Name: "assortativity"},
			},
		},
	}}
}

// stagesHOT100k is one scenario, one rep: a HOT graph (n=100000,
// alpha=8, links=2) through every stage, with a 24-event timeline whose
// targets are drawn inside the generated graph.
func stagesHOT100k(seed int64) []scenario.Scenario {
	const n = 100000
	r := rand.New(rand.NewSource(seed))
	ts := topoSeed(r)
	return []scenario.Scenario{{
		Name:     "stages-hot100k",
		Generate: scenario.GenerateSpec{Model: "hot", Params: scenario.Params{"n": n, "alpha": 8, "links": 2, "seed": float64(ts)}},
		Measure: &scenario.MeasureSpec{
			Degrees: true,
			Metrics: []scenario.MetricSelection{
				{Name: "avg-hop-length", Params: scenario.Params{"sources": 64}}, {Name: "lcc"},
			},
		},
		Route:    &scenario.RouteSpec{Demands: 512},
		Traffic:  &scenario.TrafficSpec{Model: "gravity", Sites: 32},
		Attack:   &scenario.AttackSpec{Strategy: "degree"},
		Timeline: &scenario.TimelineSpec{Events: timelineEvents(r, n, 24)},
	}}
}

// timelineEvents draws count events cycling through fail-node,
// fail-edge, capacity-set, repair (node), demand-switch and repair
// (edge), so every event kind appears and every repair names an item
// failed earlier. Node ids are drawn from [0, n) and edge ids from
// [0, n-1): the generators used here are connected growth models, so
// a graph on n nodes has at least n-1 edges.
func timelineEvents(r *rand.Rand, n, count int) []scenario.TimelineEventSpec {
	var nodes, edges []int
	out := make([]scenario.TimelineEventSpec, 0, count)
	for i := 0; i < count; i++ {
		at := float64(i) / 2
		ev := scenario.TimelineEventSpec{At: &at}
		switch i % 6 {
		case 0:
			v := r.Intn(n)
			nodes = append(nodes, v)
			ev.Event, ev.Node = "fail-node", &v
		case 1:
			e := r.Intn(n - 1)
			edges = append(edges, e)
			ev.Event, ev.Edge = "fail-edge", &e
		case 2:
			e, c := r.Intn(n-1), 0.5+float64(r.Intn(8))/2
			ev.Event, ev.Edge, ev.Capacity = "capacity-set", &e, &c
		case 3:
			v := nodes[0]
			nodes = nodes[1:]
			ev.Event, ev.Node = "repair", &v
		case 4:
			ev.Event = "demand-switch"
			if r.Intn(2) == 0 {
				ev.Model, ev.Params = "bimodal", scenario.Params{"peak": 1, "offpeak": float64(1+r.Intn(4)) / 8}
			} else {
				ev.Model, ev.Params = "gravity", scenario.Params{"exponent": float64(1 + r.Intn(2))}
			}
		case 5:
			e := edges[0]
			edges = edges[1:]
			ev.Event, ev.Edge = "repair", &e
		}
		out = append(out, ev)
	}
	return out
}

// serviceJob is one service-mix job: 5 scenarios, 9 units, over two
// HOT and two BA topologies of n nodes whose identities derive from
// (ts, n) alone, so jobs sharing them share cached snapshots. variant
// varies the stages, never the identities. Together the scenarios cover
// every stage: measure, route, traffic, attack and timeline.
func serviceJob(ts int64, n int, variant int64) []scenario.Scenario {
	r := rand.New(rand.NewSource(ts*31 + variant))
	hot := scenario.GenerateSpec{Model: "hot", Params: scenario.Params{"n": float64(n), "alpha": 8, "links": 2}}
	ba := scenario.GenerateSpec{Model: "ba", Params: scenario.Params{"n": float64(n), "m": 2}}
	pair := []int64{ts, ts + 1}
	models := []string{"gravity", "zipf-hotspot", "bimodal", "uniform"}
	return []scenario.Scenario{
		{
			Name: "svc-measure", Generate: hot, Seeds: pair,
			Measure: &scenario.MeasureSpec{Degrees: true, Metrics: []scenario.MetricSelection{
				{Name: "avg-hop-length", Params: scenario.Params{"sources": float64(32 + r.Intn(64))}},
				{Name: "lcc"}, {Name: "clustering"},
			}},
		},
		{
			Name: "svc-route", Generate: hot, Seeds: pair,
			Route: &scenario.RouteSpec{Demands: 128 + r.Intn(256)},
		},
		{
			Name: "svc-traffic-attack", Generate: hot, Seeds: pair,
			Traffic: &scenario.TrafficSpec{Model: models[r.Intn(len(models))], Sites: 8 + r.Intn(16)},
			Attack:  &scenario.AttackSpec{Strategy: "degree"},
		},
		{
			Name: "svc-ba", Generate: ba, Seeds: pair,
			Measure: &scenario.MeasureSpec{Metrics: []scenario.MetricSelection{
				{Name: "assortativity"}, {Name: "diameter", Params: scenario.Params{"sources": 32}},
			}},
			Attack: &scenario.AttackSpec{Strategy: "random-failure", Trials: 2},
		},
		{
			Name: "svc-timeline", Generate: hot, Seeds: pair[:1],
			Traffic:  &scenario.TrafficSpec{Model: "bimodal", Sites: 12},
			Timeline: &scenario.TimelineSpec{Events: timelineEvents(r, n, 12)},
		},
	}
}

// units counts the (scenario, rep) units of a batch.
func units(scs []scenario.Scenario) int {
	n := 0
	for i := range scs {
		n += scs[i].NumReps()
	}
	return n
}

// specJSON is the document the program under test receives.
func specJSON(scs []scenario.Scenario) ([]byte, error) {
	return json.Marshal(struct {
		Scenarios []scenario.Scenario `json:"scenarios"`
	}{scs})
}
