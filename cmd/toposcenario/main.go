// Command toposcenario runs declarative scenario specs end-to-end: each
// scenario names a registered generator plus optional measure, route,
// and attack stages, and the engine executes the whole batch on the CSR
// kernel with a shared worker pool — the repository's serve-many-
// requests entry point.
//
// Usage:
//
//	toposcenario -spec scenario.json
//	toposcenario -spec batch.json -workers 8 -format json
//	topogen-like pipelines: cat spec.json | toposcenario -spec -
//	toposcenario -server http://127.0.0.1:8080 -spec batch.json
//	toposcenario -server http://127.0.0.1:8080 -statusz
//	toposcenario -list
//
// The spec file holds one scenario object, a JSON array of them, or
// {"scenarios": [...]}. A -timeout bounds the whole batch; Ctrl-C
// cancels it cleanly (the engine returns as soon as every in-flight
// stage observes the cancellation) and exits non-zero with the partial
// results emitted: JSON output wraps them as {"partial": true, ...} and
// table output appends a "# PARTIAL:" trailer, so a cut-short run is
// never mistaken for a complete one. Output is byte-identical for any
// -workers value.
//
// With -server the spec is submitted to a toposcenariod daemon instead
// of running in-process: the job is polled to completion and the
// results printed in the same formats — byte-identical to a local run
// of the same spec. Ctrl-C cancels the remote job before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/attackreg"
	"repro/internal/errs"
	"repro/internal/metricreg"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/trafficreg"
)

type runConfig struct {
	spec    string
	workers int
	format  string
	out     string
	timeout time.Duration
	server  string
	statusz bool
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.spec, "spec", "", "scenario spec file ('-' = stdin; required)")
	flag.IntVar(&cfg.workers, "workers", 0, "total worker budget, split between scenario replications and each one's stages (<= 0 = GOMAXPROCS); output is identical for any value")
	flag.StringVar(&cfg.format, "format", "table", "output format: table|json")
	flag.StringVar(&cfg.out, "o", "-", "output file ('-' = stdout)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the batch after this long (0 = no limit)")
	flag.StringVar(&cfg.server, "server", "", "run on a toposcenariod daemon at this base URL instead of in-process")
	flag.BoolVar(&cfg.statusz, "statusz", false, "with -server: print the daemon's statusz snapshot and exit")
	list := flag.Bool("list", false, "list registered models, traffic models, attacks, and metrics with their parameters and exit")
	flag.Parse()

	if *list {
		listModels(os.Stdout)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "toposcenario: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig) error {
	if cfg.statusz {
		if cfg.server == "" {
			return fmt.Errorf("-statusz needs -server")
		}
		return printStatusz(ctx, cfg)
	}
	if cfg.spec == "" {
		return fmt.Errorf("missing -spec (a file path, or '-' for stdin)")
	}
	var data []byte
	var err error
	if cfg.spec == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(cfg.spec)
	}
	if err != nil {
		return err
	}
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	if cfg.server != "" {
		return runRemote(ctx, cfg, data)
	}

	scs, err := scenario.ParseSpec(data)
	if err != nil {
		return err
	}
	results, err := scenario.NewEngine(nil).RunBatch(ctx, scs, scenario.Options{Workers: cfg.workers})
	return emit(cfg, results, err)
}

// runRemote submits the raw spec bytes to a daemon, waits for the
// terminal state, and renders the results exactly like a local run. A
// canceled local context cancels the job server-side and the partial
// results come back with the non-zero exit.
func runRemote(ctx context.Context, cfg runConfig, spec []byte) error {
	c := service.NewClient(cfg.server, nil)
	st, err := c.SubmitSpec(ctx, spec)
	if err != nil {
		return err
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		if !errors.Is(err, errs.ErrCanceled) {
			return err
		}
		// The local context died: cancel server-side and fetch the
		// job's partial state with a fresh context.
		fctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if _, cerr := c.Cancel(fctx, st.ID); cerr != nil {
			return fmt.Errorf("%w (remote cancel failed: %v)", err, cerr)
		}
		if final, _ = c.Wait(fctx, st.ID); final == nil {
			return err
		}
		return emit(cfg, final.Results, err)
	}
	switch final.State {
	case service.StateDone:
		return emit(cfg, final.Results, nil)
	case service.StateCanceled:
		return emit(cfg, final.Results, fmt.Errorf("remote job %s: %s: %w", final.ID, final.Error, errs.ErrCanceled))
	default:
		return emit(cfg, final.Results, fmt.Errorf("remote job %s failed: %s", final.ID, final.Error))
	}
}

func printStatusz(ctx context.Context, cfg runConfig) error {
	z, err := service.NewClient(cfg.server, nil).Statusz(ctx)
	if err != nil {
		return err
	}
	w, closeOut, err := openOut(cfg.out)
	if err != nil {
		return err
	}
	defer closeOut()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(z)
}

// emit renders results and returns runErr (so a cut-short batch still
// prints what completed before the non-zero exit). A complete run's
// output bytes are exactly the formatted results — the partial wrapper
// and trailer appear only alongside an error.
func emit(cfg runConfig, results []*scenario.Result, runErr error) error {
	if results == nil {
		return runErr
	}
	w, closeOut, err := openOut(cfg.out)
	if err != nil {
		return errors.Join(runErr, err)
	}
	defer closeOut()
	switch cfg.format {
	case "table":
		for i, r := range results {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprint(w, r.Format())
		}
		if runErr != nil {
			fmt.Fprintf(w, "\n# PARTIAL: %v\n", runErr)
		}
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if runErr != nil {
			wrapped := struct {
				Partial bool               `json:"partial"`
				Error   string             `json:"error"`
				Results []*scenario.Result `json:"results"`
			}{true, runErr.Error(), results}
			if err := enc.Encode(wrapped); err != nil {
				return errors.Join(runErr, err)
			}
			return runErr
		}
		if err := enc.Encode(results); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", cfg.format)
	}
	return runErr
}

func openOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// listModels enumerates everything a scenario spec can name: generator
// models (generate.model), traffic demand models (traffic.model),
// attack strategies (attack.strategy), and registry metrics
// (measure.metrics).
func listModels(w io.Writer) {
	fmt.Fprintln(w, "models:")
	scenario.Default().FormatModels(w, "  ")
	fmt.Fprintln(w, "traffic:")
	trafficreg.Default().FormatModels(w, "  ")
	fmt.Fprintln(w, "attacks:")
	attackreg.Default().FormatAttacks(w, "  ")
	fmt.Fprintln(w, "metrics:")
	metricreg.Default().FormatMetrics(w, "  ")
}
