// Command toposcenariod hosts one shared scenario engine behind the
// HTTP/JSON job API in internal/service: submit spec documents (the
// same JSON the toposcenario CLI runs locally), poll incremental
// results, cancel jobs, and read registry and cache/job telemetry.
//
// Usage:
//
//	toposcenariod -addr 127.0.0.1:8080
//	toposcenariod -addr :0 -cache-budget-mb 256 -executors 4
//	toposcenario -server http://127.0.0.1:8080 -spec batch.json
//
// Endpoints: POST/GET /v1/jobs, GET/DELETE /v1/jobs/{id},
// GET /v1/registry, GET /v1/statusz. SIGINT/SIGTERM starts a graceful
// drain: intake stops (503), queued and running jobs finish, then the
// process exits 0; jobs still running past -drain-timeout are canceled
// through their contexts.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

type config struct {
	addr          string
	cacheBudgetMB int
	maxQueue      int
	executors     int
	jobWorkers    int
	jobTimeout    time.Duration
	drainTimeout  time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	flag.IntVar(&cfg.cacheBudgetMB, "cache-budget-mb", 0, "snapshot cache budget in MiB (0 = engine default, negative disables retention)")
	flag.IntVar(&cfg.maxQueue, "queue", 0, "max queued jobs before 429 (0 = default 64)")
	flag.IntVar(&cfg.executors, "executors", 0, "jobs run concurrently (0 = default 2)")
	flag.IntVar(&cfg.jobWorkers, "job-workers", 0, "engine worker budget per job, split between its replications and their stages (<= 0 = GOMAXPROCS)")
	flag.DurationVar(&cfg.jobTimeout, "job-timeout", 0, "per-job execution bound (0 = no limit)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound after SIGINT/SIGTERM")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stderr, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "toposcenariod: %v\n", err)
		os.Exit(1)
	}
}

// run listens, serves until ctx is canceled, then drains. The
// "listening on" line goes to out as soon as the port is bound, so
// scripts starting the daemon on :0 can parse the resolved address.
func run(ctx context.Context, out io.Writer, cfg config) error {
	eng := scenario.NewEngine(nil)
	if cfg.cacheBudgetMB != 0 {
		eng.SetCacheBudget(int64(cfg.cacheBudgetMB) << 20)
	}
	srv := service.New(service.Config{
		Engine:     eng,
		MaxQueue:   cfg.maxQueue,
		Executors:  cfg.executors,
		JobWorkers: cfg.jobWorkers,
		JobTimeout: cfg.jobTimeout,
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "toposcenariod: listening on %s (queue=%d executors=%d cache_budget=%d)\n",
		ln.Addr(), cfg.maxQueue, cfg.executors, eng.CacheStats().Budget)

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "toposcenariod: draining (bound %s)\n", cfg.drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(out, "toposcenariod: drained cleanly")
	return nil
}
