package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/service"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP int
		wantV float64
		ok    bool
	}{
		{n: 100, wantP: 90, wantV: 90, ok: true}, // rank 90, 10 beyond
		{n: 99, wantP: 89, wantV: 89, ok: true},  // p90 is rank 90, 9 beyond
		{n: 64, wantP: 84, wantV: 54, ok: true},  // rank ceil(53.76) = 54
		{n: 20, wantP: 50, wantV: 10, ok: true},  // rank 10, 10 beyond
		{n: 19, wantP: 50, wantV: 10, ok: false}, // p50 is rank 10, 9 beyond
		{n: 11, wantP: 50, wantV: 6, ok: false},  // p9 would leave 10, but is below the median
		{n: 10, wantP: 50, wantV: 5.5, ok: false},
		{n: 1, wantP: 50, wantV: 1, ok: false},
	} {
		p, v, ok := tailPercentile(seq(tc.n), 90)
		if p != tc.wantP || v != tc.wantV || ok != tc.ok {
			t.Errorf("n=%d: got p%d=%g ok=%v, want p%d=%g ok=%v", tc.n, p, v, ok, tc.wantP, tc.wantV, tc.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%d", tc.n, beyond, p)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		// Two children of root that overlap each other: together they
		// cover [1, 6], not 3 + 4 = 7.
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 2, End: 6},
		// A grandchild inside a: it shrinks a's self time, not root's.
		{ID: 4, Parent: 2, Name: "a.1", Start: 2, End: 3},
		// A child that runs past its parent's end counts only inside it.
		{ID: 5, Parent: 1, Name: "c", Start: 9, End: 12},
		{ID: 6, Name: "other", Start: 20, End: 21},
	}
	fillSelf(spans)
	want := map[string]float64{"root": 10 - 5 - 1, "a": 3 - 1, "b": 4, "a.1": 1, "c": 3, "other": 1}
	for _, s := range spans {
		if !near(s.Self, want[s.Name]) {
			t.Errorf("%s: self %g, want %g", s.Name, s.Self, want[s.Name])
		}
	}
	if got := covered(0, 10, [][2]float64{{5, 6}, {1, 2}, {1.5, 3}, {11, 12}}); !near(got, 3) {
		t.Errorf("covered = %g, want 3", got)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := newRecorder()
	err := r.call("outer", 0, 7, func(id int) error {
		return r.call("inner", id, 7, func(int) error { return errors.New("boom") })
	})
	if err == nil || len(r.spans) != 2 || r.spans[1].Parent != r.spans[0].ID || r.spans[1].Unit != 7 {
		t.Fatalf("spans %+v, err %v", r.spans, err)
	}
	var none *recorder
	if err := none.call("x", 0, 0, func(id int) error {
		if id != 0 {
			return fmt.Errorf("nil recorder gave id %d", id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The closed loop's clients record spans from several goroutines at once.
func TestRecorderConcurrent(t *testing.T) {
	r := newRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = r.call("job", 0, g, func(id int) error {
					return r.call("poll", id, g, func(int) error { return nil })
				})
			}
		}()
	}
	wg.Wait()
	if len(r.spans) != 1600 {
		t.Fatalf("%d spans, want 1600", len(r.spans))
	}
	for i, s := range r.spans {
		if s.ID != i+1 || s.End < s.Start || (s.Name == "poll") != (s.Parent != 0) {
			t.Fatalf("bad span %+v", s)
		}
		if s.Parent != 0 && r.spans[s.Parent-1].Unit != s.Unit {
			t.Fatalf("span %d parented across goroutines", s.ID)
		}
	}
}

func TestFailFracAccounting(t *testing.T) {
	var tl tally
	done := &service.JobStatus{State: service.StateDone}
	ref := []byte("[{}]\n")

	tl.add(9, jobCause(done, ref, ref)) // correct job
	tl.add(9, requestCause(fmt.Errorf("service: POST /v1/jobs: HTTP 429: service: job queue full (64 queued)")))
	tl.add(9, requestCause(fmt.Errorf("service: GET /v1/jobs/job-3: HTTP 500: boom")))
	tl.add(9, jobCause(&service.JobStatus{State: service.StateFailed}, nil, ref))
	tl.add(9, jobCause(&service.JobStatus{State: service.StateCanceled}, nil, ref))
	tl.add(9, jobCause(done, []byte("[{\"x\":1}]\n"), ref)) // byte mismatch
	tl.add(1, causeExit)                                    // a CLI run exiting non-zero

	if tl.attempted != 55 || tl.failed != 46 {
		t.Fatalf("attempted %d failed %d, want 55 and 46", tl.attempted, tl.failed)
	}
	if got := tl.frac(); !near(got, 46.0/55) {
		t.Errorf("fail_frac %g", got)
	}
	want := map[string]int{causeRefused: 9, causeHTTP: 9, causeFailed: 9, causeCanceled: 9, causeMismatch: 9, causeExit: 1}
	for cause, n := range want {
		if tl.causes[cause] != n {
			t.Errorf("cause %s: %d units, want %d", cause, tl.causes[cause], n)
		}
	}
	var empty tally
	if empty.frac() != 0 {
		t.Error("empty tally fail_frac not 0")
	}
}
