// Command e2ebench is the repository's end-to-end benchmark: it times
// whole scenario runs through the shipped toposcenario binary and job
// round trips against a toposcenariod subprocess, checks every output
// against an in-process engine run of the same spec, and, with -trace 1,
// replays the work in-process with a span around each layer's public
// function to break the time down by layer.
//
// Build and run it from the repository root through run.sh:
//
//	bash e2ebench/run.sh --workload profile-ba3k --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it describe the
// run for a reader: the machine stamp, each metric with its unit and
// how it was aggregated, and every failure.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"profile-ba3k", "stages-hot100k", "service-mix"}

// printedOnly are per-layer figures that some workload never exercises
// (routing and the timeline on profile-ba3k, the profile on the other
// two, the daemon and its cache on the CLI workloads), so there they
// read exactly 0 on every run; and trace.overhead_s, a difference of
// two walls that is noise around 0. They are printed and recorded for
// every workload but left out of the result line, which carries only
// figures that every workload measures.
var printedOnly = map[string]bool{
	"metrics.profile_s":              true,
	"metricreg.traffic_s":            true,
	"routing.route_s":                true,
	"routing.sources":                true,
	"trafficreg.prepare_s":           true,
	"robust.sweep_s":                 true,
	"robust.timeline_s":              true,
	"robust.timeline_events":         true,
	"scenario.timeline_traffic_s":    true,
	"scenario.timeline_traffic_rows": true,
	"scenario.cache_hits":            true,
	"scenario.cache_coalesced":       true,
	"scenario.cache_hit_ratio":       true,
	"service.submit_s":               true,
	"service.poll_s":                 true,
	"service.polls_per_job":          true,
	"service.result_bytes":           true,
	"trace.overhead_s":               true,
}

// runLimit bounds one workload run, so a hung child cannot keep the
// benchmark from exiting.
const runLimit = 170 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout holding the programs' sources
	out      string // build and scratch directory inside the checkout
	bin      string // directory holding the built binaries
}

// metric is one reported figure; note says how it was aggregated.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string
}

// result is one workload run's outcome.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
	spans    []span
	jobs     []jobRecord
}

// jobRecord is one timed job, kept in the run's record: a service-mix
// job, or one toposcenario run of a CLI workload.
type jobRecord struct {
	Index   int     `json:"index"`
	Warm    bool    `json:"warm,omitempty"`
	Latency float64 `json:"latency_s"`
	Polls   int     `json:"polls,omitempty"`
	CPU     float64 `json:"cpu_s,omitempty"`
}

func (r *result) set(name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, note: note}
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// finish sets the counts from the tally and correct from everything
// recorded.
func (r *result) finish(t tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	for cause, n := range t.causes {
		r.fail("%d units failed: %s", n, cause)
	}
	r.Correct = len(r.failures) == 0
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated spec derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed loop of one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.out, "out", ".bench_build", "build and scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, stdout io.Writer) error {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		if !slices.Contains(workloadNames, name) {
			return fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(workloadNames, ", "))
		}
	}
	// A baseline taken with one processor measures only the serial
	// paths; refuse it rather than record it.
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Errorf("GOMAXPROCS=%d: the parallel paths would not run; refusing to record a baseline below 2", p)
	}
	cfg.bin = filepath.Join(cfg.out, "bin")
	for _, dir := range []string{"work", "results"} {
		if err := os.MkdirAll(filepath.Join(cfg.out, dir), 0o755); err != nil {
			return err
		}
	}
	st := machineStamp(cfg.root)
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# machine %s\n", stampJSON)

	combined := &result{Correct: true}
	for _, name := range names {
		fmt.Fprintf(stdout, "# workload %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
		ctx, cancel := context.WithTimeout(context.Background(), runLimit)
		res, err := runWorkload(ctx, cfg, name)
		cancel()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := record(cfg, name, st, res); err != nil {
			return err
		}
		printResult(stdout, res)
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for k, m := range res.Metrics {
			if printedOnly[k] {
				continue
			}
			if len(names) > 1 {
				k = name + "/" + k
			}
			combined.set(k, m.Value, m.Unit, m.note)
		}
	}
	last, err := json.Marshal(combined)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !combined.Correct {
		return fmt.Errorf("outputs are not correct (see the lines above)")
	}
	return nil
}

func runWorkload(ctx context.Context, cfg config, name string) (*result, error) {
	switch name {
	case "service-mix":
		return serviceWorkload(ctx, cfg)
	case "profile-ba3k":
		return cliWorkload(ctx, cfg, name, profileBA3k(cfg.seed))
	default:
		return cliWorkload(ctx, cfg, name, stagesHOT100k(cfg.seed))
	}
}

func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		note := m.note
		if printedOnly[k] {
			note += " [not in the result line]"
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %s\n", k, m.Value, m.Unit, note)
	}
	t := tally{attempted: res.Attempted, failed: res.Failed}
	fmt.Fprintf(w, "%-32s %14.6g %-6s %d of %d units\n", "fail_frac", t.frac(), "ratio", res.Failed, res.Attempted)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// stamp identifies the code and machine a result was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// machineStamp records the commit when the checkout is a git work tree
// (git may not look above it), and always a digest of the Go sources
// and module files, which identifies the code in a plain checkout too.
func machineStamp(root string) stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	abs, err := filepath.Abs(root)
	if err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = abs
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		if out, err := cmd.Output(); err == nil {
			st.Commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	st.SourceSHA = hex.EncodeToString(h.Sum(nil))
	return st
}

// record writes the run's full record — stamp, metrics, failures — and,
// for a traced run, its spans as NDJSON.
func record(cfg config, name string, st stamp, res *result) error {
	base := filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-trace%v", name, cfg.seed, cfg.trace))
	notes := map[string]string{}
	for k, m := range res.Metrics {
		notes[k] = m.note
	}
	data, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Seconds  float64           `json:"seconds"`
		Trace    bool              `json:"trace"`
		Stamp    stamp             `json:"stamp"`
		Result   *result           `json:"result"`
		Notes    map[string]string `json:"notes"`
		Failures []string          `json:"failures,omitempty"`
		Jobs     []jobRecord       `json:"jobs,omitempty"`
	}{name, cfg.seed, cfg.seconds, cfg.trace, st, res, notes, res.failures, res.jobs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if res.spans == nil {
		return nil
	}
	return writeNDJSON(base+".ndjson", res.spans)
}
