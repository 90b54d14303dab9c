package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// setupRuns is how many times a run measures set-up; setup_s is their
// median.
const setupRuns = 101

// child is one finished run of a program under test.
type child struct {
	wall, cpu float64 // seconds
	maxRSSKB  int64
	stdout    []byte
	err       error
}

// runChild runs bin to completion, timing it from start to exit.
func runChild(ctx context.Context, bin string, args ...string) child {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(t0).Seconds(), stdout: out.Bytes()}
	if err != nil {
		c.err = fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, bytes.TrimSpace(errOut.Bytes()))
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.cpu = tv(ru.Utime) + tv(ru.Stime)
			c.maxRSSKB = ru.Maxrss
		}
	}
	return c
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// reference runs scs on eng with one worker and returns the results,
// their -format json encoding, and the wall time of run plus encoding.
func reference(ctx context.Context, eng *scenario.Engine, scs []scenario.Scenario) ([]*scenario.Result, []byte, float64, error) {
	t0 := time.Now()
	results, err := eng.RunBatch(ctx, scs, scenario.Options{Workers: 1})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reference run: %w", err)
	}
	enc, err := formatResults(results)
	return results, enc, time.Since(t0).Seconds(), err
}

// cliWorkload times scs through the toposcenario binary. Untraced, it
// runs the spec repeatedly until the run's seconds are used and reports
// the end-to-end metrics; traced, it runs it once through the binary
// (for the child's CPU use) and once through the traced in-process
// pipeline, and reports the per-layer metrics.
func cliWorkload(ctx context.Context, cfg config, name string, scs []scenario.Scenario) (*result, error) {
	res := &result{}
	bin := filepath.Join(cfg.bin, "toposcenario")
	spec, err := specJSON(scs)
	if err != nil {
		return nil, err
	}
	specPath := filepath.Join(cfg.out, "work", fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return nil, err
	}
	nunits := units(scs)
	var t tally

	// The in-process reference the outputs are checked against. It runs
	// the same work as a pass, before the timed loop, so it also serves
	// as the run's warm-up.
	eng := scenario.NewEngine(nil)
	engineResults, want, untraced, err := reference(ctx, eng, scs)
	if err != nil {
		return nil, err
	}

	// Every invocation pays binary load and registry set-up; -list is
	// that and nothing else. Half the launches run before the timed
	// loop and half after it, so the median spans the whole run.
	var setup []float64
	measureSetup := func(n int) error {
		for i := 0; i < n && !cfg.trace; i++ {
			c := runChild(ctx, bin, "-list")
			if c.err != nil {
				return c.err
			}
			setup = append(setup, c.wall)
		}
		return nil
	}
	if err := measureSetup(setupRuns / 2); err != nil {
		return nil, err
	}

	var runs []child
	var walls []float64
	start := time.Now()
	for len(runs) == 0 || (!cfg.trace && morePasses(start, cfg.seconds)) {
		c := runChild(ctx, bin, "-spec", specPath, "-format", "json")
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run limit reached: %w", ctx.Err())
		}
		runs = append(runs, c)
		walls = append(walls, c.wall)
	}

	if err := measureSetup(setupRuns - len(setup)); err != nil {
		return nil, err
	}

	// Output check, outside the timed loop.
	var rss []float64
	for i, c := range runs {
		switch {
		case c.err != nil:
			t.add(nunits, causeExit)
			res.fail("pass %d: %v", i, c.err)
		case !bytes.Equal(c.stdout, want):
			t.add(nunits, causeMismatch)
			res.fail("pass %d: %d output bytes differ from the %d-byte in-process reference", i, len(c.stdout), len(want))
		default:
			t.add(nunits, "")
		}
		rss = append(rss, float64(c.maxRSSKB)/1024)
		res.jobs = append(res.jobs, jobRecord{Index: i, Latency: c.wall, CPU: c.cpu})
	}

	if cfg.trace {
		procs := float64(runtime.GOMAXPROCS(0))
		res.set("par.cpu_util", runs[0].cpu/(runs[0].wall*procs), "ratio",
			fmt.Sprintf("toposcenario CPU time / (wall x GOMAXPROCS=%g)", procs))
		cs := eng.CacheStats()
		setCache(res, cs.Hits, cs.Misses, cs.Coalesced, "in-process engine CacheStats for the same spec")
		res.set("service.polls_per_job", 0, "count", "no daemon in this workload")
		res.set("service.result_bytes", 0, "bytes", "no daemon in this workload")
		err := tracedRun(ctx, res, traceInput{
			rec:         newRecorder(),
			batches:     [][]scenario.Scenario{scs},
			engine:      [][]*scenario.Result{engineResults},
			want:        [][]byte{want},
			untraced:    untraced,
			minCoverage: 0.9,
		})
		if err != nil {
			return nil, err
		}
		res.finish(t)
		return res, nil
	}

	wall := median(walls)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	res.set("setup_s", median(setup), "s", fmt.Sprintf("median of %d `toposcenario -list` runs, half before and half after the timed loop", len(setup)))
	res.set("wall_s", wall, "s", fmt.Sprintf("median of %d toposcenario runs of the spec", len(walls)))
	res.set("units_per_s", float64(nunits)/wall, "1/s", fmt.Sprintf("%d unit(s) per run / wall_s", nunits))
	// Every workload's result line carries every end-to-end metric. Here
	// a job is one toposcenario run, so the job figures restate wall_s.
	setJobLatency(res, walls, "one toposcenario run is one job")
	res.set("jobs_per_s", float64(len(walls))/total, "1/s", fmt.Sprintf("%d runs / %.3f s of runs", len(walls), total))
	res.set("peak_rss_mb", median(rss), "MB", "median over runs of the child's rusage maxrss")
	res.finish(t)
	return res, nil
}

// morePasses reports whether a run that started its timed loop at
// start should start another pass: passes repeat until the run's
// seconds are used, so a run measures at least that long.
func morePasses(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() < seconds
}

// setJobLatency reports the median job latency and the highest
// percentile from p50 up to p90 that has at least minBeyond samples
// beyond it.
func setJobLatency(res *result, lat []float64, what string) {
	res.set("job_p50_s", median(lat), "s", fmt.Sprintf("median of %d jobs; %s", len(lat), what))
	p, v, ok := tailPercentile(lat, 90)
	note := fmt.Sprintf("p%d of %d jobs (highest percentile in [50, 90] with >= %d samples beyond)", p, len(lat), minBeyond)
	if !ok {
		note = fmt.Sprintf("median of %d jobs: too few samples for p50 or above with %d beyond", len(lat), minBeyond)
	}
	res.set("job_p90_s", v, "s", note)
}
