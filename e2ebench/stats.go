package main

import (
	"sort"
	"strings"

	"repro/internal/service"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile reports the highest whole percentile 50 <= p <= target
// whose nearest-rank sample leaves at least minBeyond samples above it,
// with that sample's value. A percentile below the median is no tail, so
// with too few samples for p50 to qualify, ok is false and the median
// stands in (p = 50), so the figure is still defined; the caller states
// the sample count either way.
func tailPercentile(xs []float64, target int) (p int, v float64, ok bool) {
	n := len(xs)
	s := sortedCopy(xs)
	for p = target; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ceil(p*n/100), nearest rank
		if rank < 1 {
			rank = 1
		}
		if n-rank >= minBeyond {
			return p, s[rank-1], true
		}
	}
	return 50, median(xs), false
}

// Failure causes. A unit fails when the program under test exits
// non-zero, the daemon refuses or errors on a request (429 included),
// a job ends failed or canceled, or the output bytes differ from the
// in-process reference.
const (
	causeExit     = "exit"
	causeRefused  = "429"
	causeHTTP     = "http"
	causeFailed   = "job-failed"
	causeCanceled = "job-canceled"
	causeMismatch = "mismatch"
)

// tally counts (scenario, rep) units attempted and failed, by cause.
type tally struct {
	attempted, failed int
	causes            map[string]int
}

// add records units attempted together; a non-empty cause fails them all.
func (t *tally) add(units int, cause string) {
	t.attempted += units
	if cause == "" {
		return
	}
	t.failed += units
	if t.causes == nil {
		t.causes = map[string]int{}
	}
	t.causes[cause] += units
}

// frac is fail_frac: failed units over attempted units.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// requestCause classifies an error from a service.Client call: a 429
// (queue full) is a refusal, any other error an HTTP failure.
func requestCause(err error) string {
	if err == nil {
		return ""
	}
	if strings.Contains(err.Error(), "HTTP 429") {
		return causeRefused
	}
	return causeHTTP
}

// jobCause classifies a finished job: its terminal state, then whether
// its result bytes equal the reference encoding of the same spec.
func jobCause(final *service.JobStatus, got, want []byte) string {
	switch final.State {
	case service.StateDone:
	case service.StateCanceled:
		return causeCanceled
	default:
		return causeFailed
	}
	if string(got) != string(want) {
		return causeMismatch
	}
	return ""
}
