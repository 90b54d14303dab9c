package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
)

const (
	// clients is the closed loop's client count, one per core of the
	// 2-core machine the workload was sized on.
	clients = 2
	// passJobs is one service-mix pass: half the jobs reuse warm
	// topology identities, half use fresh seeds.
	passJobs = 8
	// pollInterval spaces status polls. The client's 100 ms default
	// would quantize a 0.2 s job at half its length.
	pollInterval = 10 * time.Millisecond
	// daemonSetups is how many times a run starts the daemon; setup_s is
	// the median. A start takes a few milliseconds, mostly process exec,
	// so many are needed for a steady median.
	daemonSetups = 101
	// rssJobs is the timed job count after which the daemon's peak RSS
	// is read. The daemon keeps every job, so reading it after a fixed
	// count keeps the figure from growing with throughput.
	rssJobs = 64
)

// daemon is a running toposcenariod.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	log    *lineWatch
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// lineWatch collects a child's log and notes when a line containing
// marker is first written.
type lineWatch struct {
	marker string
	found  chan string // receives that line once
	mu     sync.Mutex
	buf    bytes.Buffer
	at     time.Time
}

func (w *lineWatch) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.at.IsZero() {
		text := w.buf.String()
		if i := strings.Index(text, w.marker); i >= 0 {
			if j := strings.IndexByte(text[i:], '\n'); j >= 0 {
				w.at = now
				w.found <- text[i : i+j]
			}
		}
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}

// startDaemon launches toposcenariod on a free local port at its
// defaults and returns it with its set-up time: from launch until the
// "listening on" line, after which it accepts jobs.
func startDaemon(ctx context.Context, bin string) (*daemon, float64, error) {
	const marker = "listening on "
	lw := &lineWatch{marker: marker, found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = lw
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, log: lw, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case line := <-lw.found:
		fields := strings.Fields(line[len(marker):])
		if len(fields) == 0 {
			d.stop()
			return nil, 0, fmt.Errorf("toposcenariod: no address in %q", line)
		}
		d.addr = fields[0]
		lw.mu.Lock()
		setup := lw.at.Sub(t0).Seconds()
		lw.mu.Unlock()
		return d, setup, nil
	case <-d.exited:
		return nil, 0, fmt.Errorf("toposcenariod exited before listening: %v: %s", d.err, lw)
	case <-ctx.Done():
		d.stop()
		return nil, 0, fmt.Errorf("toposcenariod did not start: %w", ctx.Err())
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if the drain takes
// too long, and returns once it has exited.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.err
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	return d.err
}

// startStop measures n daemon set-ups, stopping each daemon.
func startStop(ctx context.Context, bin string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, s, err := startDaemon(ctx, bin)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("toposcenariod set-up run: %v: %s", err, d.log)
		}
		out = append(out, s)
	}
	return out, nil
}

// procCPU is the process's user+system CPU time so far, in seconds.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3;
	// utime and stime are fields 14 and 15, in clock ticks (100 Hz).
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// vmHWM is the process's peak resident set so far, in KiB.
func vmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// job is one service-mix submission and what came back.
type job struct {
	idx     int
	warm    bool // reuses a cached topology identity
	scs     []scenario.Scenario
	spec    []byte
	units   int
	latency float64 // submit until a terminal state was observed
	polls   int
	final   *service.JobStatus
	err     error
}

func newJob(idx int, t topo, variant int64) (*job, error) {
	scs := serviceJob(t.seed, t.n, variant)
	spec, err := specJSON(scs)
	return &job{idx: idx, scs: scs, spec: spec, units: units(scs)}, err
}

// topo is a job's topology identity set: a seed and a node count.
type topo struct {
	seed int64
	n    int
}

// sizedTopo draws a topology whose node count lies in the k-th of
// `of` equal slices of [2000, 3000), so that every pass, and the warm
// pool, spans the whole size range instead of leaving it to chance.
func sizedTopo(r *rand.Rand, k, of int) topo {
	return topo{seed: topoSeed(r), n: 2000 + k*1000/of + r.Intn(1000/of)}
}

// warmTopos is the warm pool: identities the warm-up jobs cache before
// timing starts, one per slice of the size range.
func warmTopos(r *rand.Rand) []topo {
	warm := make([]topo, passJobs)
	for k := range warm {
		warm[k] = sizedTopo(r, k, passJobs)
	}
	return warm
}

// drawPass draws one pass: half the jobs reuse a warm topology (with
// either stage variant), half generate a fresh one. Each half holds one
// job from each quarter of the size range.
func drawPass(r *rand.Rand, warm []topo, idx0 int) ([]*job, error) {
	jobs := make([]*job, passJobs)
	half := passJobs / 2
	for k := 0; k < half; k++ {
		w, err := newJob(0, warm[2*k+r.Intn(2)], r.Int63n(2))
		if err != nil {
			return nil, err
		}
		f, err := newJob(0, sizedTopo(r, k, half), 0)
		if err != nil {
			return nil, err
		}
		w.warm = true
		jobs[2*k], jobs[2*k+1] = w, f
	}
	r.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	for i, j := range jobs {
		j.idx = idx0 + i
	}
	return jobs, nil
}

// runJob submits the job and polls it until a terminal state, exactly
// as service.Client.Wait does, with spans around the client calls.
func runJob(ctx context.Context, cl *service.Client, j *job, rec *recorder) {
	js := rec.begin("service.job", 0, j.idx)
	defer rec.end(js)
	t0 := time.Now()
	defer func() { j.latency = time.Since(t0).Seconds() }()
	var st *service.JobStatus
	if j.err = rec.call("service.submit", js, j.idx, func(int) error {
		var err error
		st, err = cl.SubmitSpec(ctx, j.spec)
		return err
	}); j.err != nil {
		return
	}
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		var cur *service.JobStatus
		j.polls++
		if j.err = rec.call("service.poll", js, j.idx, func(int) error {
			var err error
			cur, err = cl.Job(ctx, st.ID)
			return err
		}); j.err != nil {
			return
		}
		if service.Terminal(cur.State) {
			j.final = cur
			return
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			j.err = ctx.Err()
			return
		}
	}
}

// closedLoop runs jobs with `clients` clients, each submitting its next
// job only after its previous one ended.
func closedLoop(ctx context.Context, cl *service.Client, jobs []*job, rec *recorder) {
	next := make(chan *job, len(jobs)) // holds the whole pass
	for _, j := range jobs {
		next <- j
	}
	close(next)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				runJob(ctx, cl, j, rec)
			}
		}()
	}
	wg.Wait()
}

// refEntry is the in-process engine's answer for one spec.
type refEntry struct {
	results []*scenario.Result
	enc     []byte
}

// serviceWorkload drives toposcenariod with a closed loop of clients.
func serviceWorkload(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	bin := filepath.Join(cfg.bin, "toposcenariod")
	// Half the set-up measurements run before the timed loop and half
	// after it, so the median spans the whole run; the last daemon
	// started before the loop serves it.
	setups, err := startStop(ctx, bin, daemonSetups/2)
	if err != nil {
		return nil, err
	}
	d, s, err := startDaemon(ctx, bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	setups = append(setups, s)
	pid := d.cmd.Process.Pid
	cl := service.NewClient("http://"+d.addr, &http.Client{Timeout: 60 * time.Second})

	// Warm-up, untimed: one job per warm topology fills the cache.
	r := rand.New(rand.NewSource(cfg.seed))
	pool := warmTopos(r)
	var warm, timed []*job
	for i, t := range pool {
		j, err := newJob(-1-i, t, 0)
		if err != nil {
			return nil, err
		}
		runJob(ctx, cl, j, nil)
		warm = append(warm, j)
	}

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	z0, err := cl.Statusz(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	var passWalls []float64
	var hwm int64
	start := time.Now()
	for len(passWalls) == 0 || morePasses(start, cfg.seconds) {
		pass, err := drawPass(r, pool, len(timed))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		closedLoop(ctx, cl, pass, rec)
		passWalls = append(passWalls, time.Since(t0).Seconds())
		timed = append(timed, pass...)
		if ctx.Err() != nil {
			return nil, fmt.Errorf("run limit reached: %w", ctx.Err())
		}
		if hwm == 0 && len(timed) >= rssJobs {
			if hwm, err = vmHWM(pid); err != nil {
				return nil, err
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	z1, err := cl.Statusz(ctx)
	if err != nil {
		return nil, err
	}
	if hwm == 0 {
		if hwm, err = vmHWM(pid); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		res.fail("toposcenariod did not drain cleanly: %v: %s", err, d.log)
	}
	after, err := startStop(ctx, bin, daemonSetups-len(setups))
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)

	// Output check, after the daemon is gone: every job's terminal
	// results against the in-process engine's for the same spec.
	eng := scenario.NewEngine(nil)
	refs := map[string]refEntry{}
	refFor := func(j *job) (refEntry, error) {
		if ref, ok := refs[string(j.spec)]; ok {
			return ref, nil
		}
		results, err := eng.RunBatch(ctx, j.scs, scenario.Options{})
		if err != nil {
			return refEntry{}, fmt.Errorf("reference run: %w", err)
		}
		enc, err := formatResults(results)
		refs[string(j.spec)] = refEntry{results, enc}
		return refs[string(j.spec)], err
	}
	var t tally
	var lat, resultBytes []float64
	polls := 0
	for _, j := range append(warm, timed...) {
		if j.err != nil {
			t.add(j.units, requestCause(j.err))
			res.fail("job %d: %v", j.idx, j.err)
			continue
		}
		ref, err := refFor(j)
		if err != nil {
			return nil, err
		}
		got, err := formatResults(j.final.Results)
		if err != nil {
			return nil, err
		}
		cause := jobCause(j.final, got, ref.enc)
		t.add(j.units, cause)
		if cause != "" {
			res.fail("job %d (%s): %s %s", j.idx, cause, j.final.State, j.final.Error)
		}
		if j.idx >= 0 {
			res.jobs = append(res.jobs, jobRecord{Index: j.idx, Warm: j.warm, Latency: j.latency, Polls: j.polls})
			lat = append(lat, j.latency)
			resultBytes = append(resultBytes, float64(len(got)))
			polls += j.polls
		}
	}

	procs := float64(runtime.GOMAXPROCS(0))
	if !cfg.trace {
		wall := median(passWalls)
		total := 0.0
		for _, w := range passWalls {
			total += w
		}
		res.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d daemon starts, launch to `listening on`, half before and half after the timed loop", len(setups)))
		res.set("wall_s", wall, "s", fmt.Sprintf("median of %d passes of %d jobs, %d clients", len(passWalls), passJobs, clients))
		res.set("units_per_s", float64(passJobs*timed[0].units)/wall, "1/s", fmt.Sprintf("%d units per pass / wall_s", passJobs*timed[0].units))
		setJobLatency(res, lat, "submit to observed terminal state")
		res.set("jobs_per_s", float64(len(timed))/total, "1/s", fmt.Sprintf("%d jobs / %.3f s of passes", len(timed), total))
		res.set("peak_rss_mb", float64(hwm)/1024, "MB", fmt.Sprintf("daemon VmHWM after %d timed jobs (or at the end, if fewer ran)", rssJobs))
		res.finish(t)
		return res, nil
	}

	res.set("par.cpu_util", (cpu1-cpu0)/(elapsed*procs), "ratio",
		fmt.Sprintf("daemon CPU time over the timed loop / (wall x GOMAXPROCS=%g)", procs))
	hits, misses, coalesced := z1.Cache.Hits-z0.Cache.Hits, z1.Cache.Misses-z0.Cache.Misses, z1.Cache.Coalesced-z0.Cache.Coalesced
	setCache(res, hits, misses, coalesced, "statusz delta over the timed loop")
	var submit, poll []float64
	for _, s := range rec.spans {
		switch s.Name {
		case "service.submit":
			submit = append(submit, s.End-s.Start)
		case "service.poll":
			poll = append(poll, s.End-s.Start)
		}
	}
	res.set("service.submit_s", median(submit), "s", fmt.Sprintf("median of %d submits", len(submit)))
	res.set("service.poll_s", median(poll), "s", fmt.Sprintf("median of %d polls", len(poll)))
	res.set("service.polls_per_job", float64(polls)/float64(len(lat)), "count", fmt.Sprintf("mean over %d jobs", len(lat)))
	res.set("service.result_bytes", median(resultBytes), "bytes", "median -format json encoding of a job's terminal results")

	// Per-layer breakdown: the first pass's jobs replayed in-process,
	// after the warm-up jobs filled the traced engine's snapshot cache
	// just as they filled the daemon's.
	in := traceInput{rec: rec}
	for _, j := range warm {
		in.warm = append(in.warm, j.scs)
	}
	for _, j := range timed[:passJobs] {
		ref, err := refFor(j)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, j.scs)
		in.engine = append(in.engine, ref.results)
		in.want = append(in.want, ref.enc)
	}
	if in.untraced, err = untracedWall(ctx, in.warm, in.batches); err != nil {
		return nil, err
	}
	if err := tracedRun(ctx, res, in); err != nil {
		return nil, err
	}
	res.finish(t)
	return res, nil
}

// untracedWall times batches, with their encoding, on a fresh engine
// with one worker, after warm fills its cache: the untraced twin of the
// traced replay.
func untracedWall(ctx context.Context, warm, batches [][]scenario.Scenario) (float64, error) {
	eng := scenario.NewEngine(nil)
	for _, scs := range warm {
		if _, _, _, err := reference(ctx, eng, scs); err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, scs := range batches {
		_, _, wall, err := reference(ctx, eng, scs)
		if err != nil {
			return 0, err
		}
		total += wall
	}
	return total, nil
}

func setCache(res *result, hits, misses, coalesced int64, note string) {
	res.set("scenario.cache_hits", float64(hits), "count", note)
	res.set("scenario.cache_misses", float64(misses), "count", note)
	res.set("scenario.cache_coalesced", float64(coalesced), "count", note)
	ratio := 0.0
	if n := hits + misses + coalesced; n > 0 {
		ratio = float64(hits) / float64(n)
	}
	res.set("scenario.cache_hit_ratio", ratio, "ratio", "hits / (hits + misses + coalesced)")
}
