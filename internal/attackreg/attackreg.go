// Package attackreg is the failure/attack mirror of the generator and
// metric registries (internal/scenario, internal/metricreg): every
// node- or edge-removal strategy the robustness harness can run is
// registered by name with typed, validated, JSON-serializable
// parameters, so "as many scenarios as you can imagine" extends to the
// attack axis — the paper's "robust yet fragile" claim (§3.1) only
// shows its shape under many different perturbation models.
//
// An Attack turns a topology into a complete removal schedule — a
// permutation of node ids or edge ids, deterministically from its
// resolved parameters and a seed. The sweep engine (internal/robust)
// consumes schedules two ways: re-evaluating masked metrics at each
// removal fraction, or replaying the whole schedule backwards through a
// reverse union-find for the near-linear incremental LCC trajectory.
package attackreg

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/errs"
	"repro/internal/graph"
	"repro/internal/params"
)

// Params carries attack arguments by name (the shared internal/params
// machinery, also under the generator and metric registries). Values
// are float64 — the JSON number type — so a Params map round-trips
// through JSON verbatim.
type Params = params.Params

// ParamSpec declares one named attack parameter: its kind, default, and
// optional closed bounds.
type ParamSpec = params.Spec

// Target declares what a schedule's entries index: nodes or edges.
type Target uint8

// Schedule targets.
const (
	// Nodes: schedule entries are node ids; removing a node removes its
	// incident edges.
	Nodes Target = iota
	// Edges: schedule entries are edge ids; all nodes stay present.
	Edges
)

// String names the target.
func (t Target) String() string {
	if t == Edges {
		return "edges"
	}
	return "nodes"
}

// Caps declares schedule properties the sweep engine plans around.
type Caps uint32

// Capability flags.
const (
	// CapRandomized: the schedule depends on the seed, so sweeps average
	// over trials. Deterministic attacks always use a single pass.
	CapRandomized Caps = 1 << iota
	// CapAdaptive: the attack re-scores the residual topology as
	// removals proceed (strictly deadlier than its static counterpart on
	// hub topologies).
	CapAdaptive
)

// Attack is one registered removal strategy: a name, a typed parameter
// interface, a target (nodes or edges), and a schedule function.
type Attack interface {
	// Name is the registry key (e.g. "degree", "geographic").
	Name() string
	// Params declares the accepted parameters with kinds, defaults and
	// bounds.
	Params() []params.Spec
	// Target reports whether schedules index nodes or edges.
	Target() Target
	// Caps declares schedule properties (randomized, adaptive).
	Caps() Caps
	// Schedule returns the complete removal order for g — a permutation
	// of node ids (Nodes) or edge ids (Edges) — deterministically from
	// the resolved params and seed. Adaptive attacks simulate removals
	// internally; the returned schedule is still a fixed order.
	// Implementations check ctx at iteration boundaries of superlinear
	// work and return an errs.ErrCanceled-wrapping error once it is done.
	// workers bounds the goroutines a schedule may fan out over (<= 0
	// means GOMAXPROCS); the schedule must not depend on it.
	Schedule(ctx context.Context, g *graph.Graph, p params.Params, seed int64, workers int) ([]int, error)
}

// Selection names one attack with optional parameters; it round-trips
// through JSON and is the unit scenario.AttackSpec and the CLIs
// validate against the registry (the shared internal/params shape,
// also under the metric and traffic registries).
type Selection = params.Selection

// Resolve validates user-supplied params against the attack's specs and
// returns a complete parameter set with defaults filled in, wrapping
// errs.ErrBadParam on unknown names, non-integral Int values and
// out-of-bounds values.
func Resolve(a Attack, p params.Params) (params.Params, error) {
	return params.Resolve(fmt.Sprintf("attackreg: attack %q", a.Name()), a.Params(), p)
}

// aliases maps the historical strategy spellings (robust.Strategy
// String() output and the short forms scenario specs used) onto the
// canonical registry names, so every spec that validated before the
// registry existed still validates.
var aliases = map[string]string{
	"":                       "random-failure",
	"random":                 "random-failure",
	"degree-attack":          "degree",
	"betweenness-attack":     "betweenness",
	"adaptive-degree-attack": "adaptive-degree",
}

// Canonical maps a possibly-aliased attack name to its registry key.
// Unknown names pass through unchanged (Lookup reports them).
func Canonical(name string) string {
	if c, ok := aliases[name]; ok {
		return c
	}
	return name
}

// Registry maps attack names to Attacks. The zero value is ready to
// use; Default() holds every built-in attack.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Attack
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds an attack, rejecting duplicate or empty names.
func (r *Registry) Register(a Attack) error {
	name := a.Name()
	if name == "" {
		return errs.BadParamf("attackreg: attack with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = map[string]Attack{}
	}
	if _, dup := r.byName[name]; dup {
		return errs.BadParamf("attackreg: attack %q already registered", name)
	}
	r.byName[name] = a
	return nil
}

// Lookup resolves an attack by name (aliases included), wrapping
// errs.ErrBadParam for unknown names.
func (r *Registry) Lookup(name string) (Attack, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.byName[Canonical(name)]
	if !ok {
		return nil, errs.BadParamf("attackreg: unknown attack %q (have %v)", name, r.namesLocked())
	}
	return a, nil
}

// Names lists every registered attack name, sorted.
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
// attack (and anything added through Register).
func Default() *Registry { return defaultRegistry }

// Register adds an attack to the default registry.
func Register(a Attack) error { return defaultRegistry.Register(a) }

// Lookup resolves a name (aliases included) in the default registry.
func Lookup(name string) (Attack, error) { return defaultRegistry.Lookup(name) }

// Names lists the default registry, sorted.
func Names() []string { return defaultRegistry.Names() }

// FuncAttack adapts a parameter-spec list plus a schedule function into
// an Attack; it is how every built-in attack is registered and the
// easiest way to add external ones.
type FuncAttack struct {
	AttackName   string
	AttackParams []params.Spec
	AttackTarget Target
	AttackCaps   Caps
	Fn           func(ctx context.Context, g *graph.Graph, p params.Params, seed int64, workers int) ([]int, error)
}

// Name implements Attack.
func (f *FuncAttack) Name() string { return f.AttackName }

// Params implements Attack.
func (f *FuncAttack) Params() []params.Spec {
	out := make([]params.Spec, len(f.AttackParams))
	copy(out, f.AttackParams)
	return out
}

// Target implements Attack.
func (f *FuncAttack) Target() Target { return f.AttackTarget }

// Caps implements Attack.
func (f *FuncAttack) Caps() Caps { return f.AttackCaps }

// Schedule implements Attack.
func (f *FuncAttack) Schedule(ctx context.Context, g *graph.Graph, p params.Params, seed int64, workers int) ([]int, error) {
	return f.Fn(ctx, g, p, seed, workers)
}

// FormatAttacks writes a human-readable listing of every registered
// attack and its parameters (sorted by name), prefixing each parameter
// line with paramPrefix — CLIs share this for their -list flags.
func (r *Registry) FormatAttacks(w io.Writer, paramPrefix string) {
	for _, name := range r.Names() {
		a, err := r.Lookup(name)
		if err != nil {
			continue
		}
		traits := []string{a.Target().String()}
		if a.Caps()&CapRandomized != 0 {
			traits = append(traits, "randomized")
		}
		if a.Caps()&CapAdaptive != 0 {
			traits = append(traits, "adaptive")
		}
		fmt.Fprintf(w, "%s  [%s]\n", name, strings.Join(traits, ", "))
		specs := a.Params()
		sort.Slice(specs, func(x, y int) bool { return specs[x].Name < specs[y].Name })
		for _, s := range specs {
			fmt.Fprintf(w, "  %s%s.%s=<%s>  (default %g)  %s\n", paramPrefix, name, s.Name, s.Kind, s.Default, s.Help)
		}
	}
}

// ParseSelections builds an attack set from a comma-separated name list
// plus "attack.param=value" assignments (the cmd/topoattack flag
// syntax, via the shared internal/params parser; the index is keyed by
// canonical name, so an alias and its canonical spelling are caught as
// duplicates and a param assignment reaches its attack through either
// spelling). Every failure wraps errs.ErrBadParam; assignments naming
// an attack outside the selected set are rejected so typos fail loudly.
func ParseSelections(names string, kvs []string) ([]Selection, error) {
	return params.ParseSelections("attackreg", "attack", Canonical, names, kvs)
}
