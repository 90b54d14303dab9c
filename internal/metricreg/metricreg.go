// Package metricreg is the measurement mirror of the generator registry
// (internal/scenario): every structural/performance metric the paper's
// comparison battery needs is registered by name with typed, validated,
// JSON-serializable parameters, and a fused evaluation engine computes a
// named metric set in shared passes over one frozen CSR snapshot.
//
// Three pieces compose:
//
//   - A Metric interface: name, parameter specs (internal/params), and
//     the capabilities it needs from the evaluation source (CapGraph,
//     CapConnected, CapMasked).
//   - Streaming Accumulators: a metric's New builds one accumulator per
//     evaluation; accumulators that reduce breadth-first sweeps to hop
//     histograms (BFSAccumulator: nodes per hop distance from each of
//     their sources) subscribe to a single fused sweep — metrics sharing
//     sources share traversals instead of each re-walking the graph —
//     while BulkAccumulators run as standalone tasks and
//     MaskedAccumulators re-evaluate under node-removal masks (the
//     robustness sweep contract).
//   - Registry.Evaluate: plans the fused schedule, runs the sweep as a
//     bit-parallel multi-source BFS over batches of up to 64 distinct
//     sources on pooled workspaces, and finalizes every accumulator in
//     set order, so results are byte-identical for any worker count.
package metricreg

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/errs"
	"repro/internal/params"
)

// Caps declares what a metric needs from the evaluation source beyond
// the frozen CSR snapshot every metric gets.
type Caps uint32

// Capability flags.
const (
	// CapGraph: the metric needs the mutable *graph.Graph (edge lists,
	// MST, betweenness) — a CSR-only source cannot evaluate it.
	CapGraph Caps = 1 << iota
	// CapConnected: the metric consumes the source's connectivity bit,
	// computed once and shared across the set.
	CapConnected
	// CapMasked: the metric's accumulator supports masked
	// (node-removal) re-evaluation, the robustness-sweep contract.
	CapMasked
	// CapTraffic: the metric evaluates a traffic allocation, so the
	// source must carry a demand set (Source.SetTraffic). The shared
	// routing/allocation results are computed once per Source and
	// reused by every traffic metric in the set.
	CapTraffic
)

// Value is one metric's result: a scalar, plus an optional series for
// curve-valued metrics (the expansion profile). For those, Scalar is
// the curve's headline point (its last entry).
type Value struct {
	Scalar float64   `json:"scalar"`
	Series []float64 `json:"series,omitempty"`
}

// Metric is one registered measurement: a name, a typed parameter
// interface, declared capabilities, and a streaming-accumulator
// factory.
type Metric interface {
	// Name is the registry key (e.g. "expansion", "clustering").
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []params.Spec
	// Caps declares what the metric needs from the evaluation source.
	Caps() Caps
	// New builds an accumulator for one evaluation. The given Params
	// have been resolved against the declared specs; seed drives every
	// sampled decision deterministically. The returned accumulator must
	// implement BFSAccumulator or BulkAccumulator (or both roles via
	// MaskedAccumulator for sweep reuse).
	New(p params.Params, seed int64) Accumulator
}

// Selection names one metric of a set with optional parameters; a
// []Selection is the unit Registry.Evaluate plans as one fused
// schedule. It round-trips through JSON (the shared internal/params
// shape, also under the attack and traffic registries).
type Selection = params.Selection

// Resolve validates user-supplied params against the metric's specs
// and returns a complete parameter set with defaults filled in,
// wrapping errs.ErrBadParam on unknown names, non-integral Int values
// and out-of-bounds values.
func Resolve(m Metric, p params.Params) (params.Params, error) {
	return params.Resolve(fmt.Sprintf("metricreg: metric %q", m.Name()), m.Params(), p)
}

// Registry maps metric names to Metrics. The zero value is ready to
// use; Default() holds every built-in metric.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a metric, rejecting duplicate or empty names.
func (r *Registry) Register(m Metric) error {
	name := m.Name()
	if name == "" {
		return errs.BadParamf("metricreg: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]Metric{}
	}
	if _, dup := r.byName[name]; dup {
		return errs.BadParamf("metricreg: metric %q already registered", name)
	}
	r.byName[name] = m
	return nil
}

// Lookup resolves a metric by name, wrapping errs.ErrBadParam for
// unknown names.
func (r *Registry) Lookup(name string) (Metric, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.byName[name]
	if !ok {
		return nil, errs.BadParamf("metricreg: unknown metric %q (have %v)", name, r.namesLocked())
	}
	return m, nil
}

// Names lists every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry holding every built-in
// metric (and anything added through Register).
func Default() *Registry { return defaultRegistry }

// Register adds a metric to the default registry.
func Register(m Metric) error { return defaultRegistry.Register(m) }

// Lookup resolves a name in the default registry.
func Lookup(name string) (Metric, error) { return defaultRegistry.Lookup(name) }

// Names lists the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }

// FuncMetric adapts a parameter-spec list plus an accumulator factory
// into a Metric; it is how every built-in metric is registered and the
// easiest way to add external ones.
type FuncMetric struct {
	MetricName   string
	MetricParams []params.Spec
	MetricCaps   Caps
	NewFn        func(p params.Params, seed int64) Accumulator
}

// Name implements Metric.
func (f *FuncMetric) Name() string { return f.MetricName }

// Params implements Metric.
func (f *FuncMetric) Params() []params.Spec {
	out := make([]params.Spec, len(f.MetricParams))
	copy(out, f.MetricParams)
	return out
}

// Caps implements Metric.
func (f *FuncMetric) Caps() Caps { return f.MetricCaps }

// New implements Metric.
func (f *FuncMetric) New(p params.Params, seed int64) Accumulator { return f.NewFn(p, seed) }

// FormatMetrics writes a human-readable listing of every registered
// metric and its parameters (sorted by name), prefixing each parameter
// line with paramPrefix — CLIs share this for their -list flags.
func (r *Registry) FormatMetrics(w io.Writer, paramPrefix string) {
	for _, name := range r.Names() {
		m, err := r.Lookup(name)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", name)
		specs := m.Params()
		sort.Slice(specs, func(a, b int) bool { return specs[a].Name < specs[b].Name })
		for _, s := range specs {
			fmt.Fprintf(w, "  %s%s.%s=<%s>  (default %g)  %s\n", paramPrefix, name, s.Name, s.Kind, s.Default, s.Help)
		}
	}
}

// ParseSelections builds a metric set from a comma-separated name list
// plus "metric.param=value" assignments (the cmd/topostats flag syntax,
// via the shared internal/params parser). Every failure wraps
// errs.ErrBadParam; assignments naming a metric outside the selected
// set are rejected so typos fail loudly.
func ParseSelections(names string, kvs []string) ([]Selection, error) {
	return params.ParseSelections("metricreg", "metric", nil, names, kvs)
}
