// Package stats provides the statistical machinery the experiments use to
// characterize topologies: degree distributions and their CCDFs, discrete
// power-law and exponential tail fits with a likelihood-based classifier,
// clustering coefficients, and assortativity.
//
// The tail classifier is the load-bearing piece: the paper's claims are of
// the form "the resulting node degree distributions can be either
// exponential or of the power-law type" (FKP, §3.1) and "yields tree
// topologies with exponential node degree distributions" (§4.2). We decide
// between the two by maximum likelihood on the degree tail, following the
// approach popularized by Clauset, Shalizi & Newman (discrete power law
// MLE + KS distance) with a log-likelihood comparison against a geometric
// (discrete exponential) alternative.
package stats

import (
	"math"
	"sort"
)

// Summary holds basic moments of a sample.
type Summary struct {
	N              int
	Mean, Variance float64
	Min, Max       float64
	Median         float64
}

// Summarize computes summary statistics of xs. Zero value for empty input.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Variance = ss / float64(s.N-1)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	return s
}

// DegreeHistogram counts occurrences of each degree value. Index k holds
// the number of nodes with degree k.
func DegreeHistogram(degrees []int) []int {
	max := 0
	for _, d := range degrees {
		if d > max {
			max = d
		}
	}
	h := make([]int, max+1)
	for _, d := range degrees {
		h[d]++
	}
	return h
}

// CCDFPoint is one point of a complementary CDF: the fraction of samples
// with value >= Value.
type CCDFPoint struct {
	Value int
	Frac  float64
}

// DegreeCCDF returns P(D >= k) for each distinct degree k present,
// ascending in k. The fractions are non-increasing and start at 1 when the
// minimum degree is included.
func DegreeCCDF(degrees []int) []CCDFPoint {
	if len(degrees) == 0 {
		return nil
	}
	h := DegreeHistogram(degrees)
	n := float64(len(degrees))
	var out []CCDFPoint
	remaining := float64(len(degrees))
	for k := 0; k < len(h); k++ {
		if h[k] > 0 {
			out = append(out, CCDFPoint{Value: k, Frac: remaining / n})
		}
		remaining -= float64(h[k])
	}
	return out
}

// TailKind classifies a degree tail.
type TailKind int

// Tail classifications reported by ClassifyTail.
const (
	TailUndetermined TailKind = iota
	TailPowerLaw
	TailExponential
)

// String names the tail kind.
func (k TailKind) String() string {
	switch k {
	case TailPowerLaw:
		return "power-law"
	case TailExponential:
		return "exponential"
	default:
		return "undetermined"
	}
}

// PowerLawFit is the result of a discrete power-law MLE on a degree tail.
type PowerLawFit struct {
	Alpha float64 // exponent of p(k) ~ k^-alpha for k >= XMin
	XMin  int     // tail start
	KS    float64 // Kolmogorov–Smirnov distance of tail fit
	NTail int     // number of samples in the tail
}

// FitPowerLaw fits a discrete power law to the tail of the degree sample
// for a fixed xmin, using the standard MLE approximation
// alpha = 1 + n / sum(ln(k / (xmin - 0.5))). Returns a zero fit when fewer
// than 2 tail samples exist.
func FitPowerLaw(degrees []int, xmin int) PowerLawFit {
	if xmin < 1 {
		xmin = 1
	}
	var tail []int
	for _, d := range degrees {
		if d >= xmin {
			tail = append(tail, d)
		}
	}
	counts := tailCounts(tail, xmin)
	return fitPowerLawTail(tail, xmin, counts, make([]float64, len(counts)))
}

// fitPowerLawTail fits the power law to tail, the samples >= xmin in
// sample order; counts[i] is the number of them equal to xmin+i, up to
// the tail's maximum, and w is scratch of at least len(counts).
func fitPowerLawTail(tail []int, xmin int, counts []int, w []float64) PowerLawFit {
	if len(tail) < 2 {
		return PowerLawFit{XMin: xmin, NTail: len(tail)}
	}
	s := 0.0
	for _, d := range tail {
		s += math.Log(float64(d) / (float64(xmin) - 0.5))
	}
	alpha := 1 + float64(len(tail))/s
	fit := PowerLawFit{Alpha: alpha, XMin: xmin, NTail: len(tail)}
	fit.KS = ksDistancePowerLaw(counts, len(tail), xmin, alpha, w)
	return fit
}

// FitPowerLawAuto selects xmin in [1, maxXMin] minimizing the KS distance
// (Clauset-style) and returns the corresponding fit. maxXMin <= 0 uses a
// default that keeps at least 10 samples in the tail.
func FitPowerLawAuto(degrees []int, maxXMin int) PowerLawFit {
	if len(degrees) == 0 {
		return PowerLawFit{}
	}
	maxDeg := 0
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxXMin <= 0 || maxXMin > maxDeg {
		maxXMin = maxDeg
	}
	sc := newTailScan(degrees, maxDeg)
	w := make([]float64, len(sc.hist))
	best := PowerLawFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= maxXMin; xmin++ {
		tail := sc.advance(xmin)
		if len(tail) < 10 {
			break // tails only shrink as xmin grows
		}
		if !hasTwoDistinctAtLeast(tail, xmin) {
			continue // single-support-point tail fits anything perfectly
		}
		if f := fitPowerLawTail(tail, xmin, sc.hist[xmin:], w); f.KS < best.KS {
			best = f
		}
	}
	if math.IsInf(best.KS, 1) {
		return FitPowerLaw(degrees, 1)
	}
	return best
}

// ksDistancePowerLaw computes the KS distance between the empirical tail
// CDF (counts over n tail samples, see fitPowerLawTail) and the fitted
// discrete power law (normalized over observed support range, a standard
// practical approximation using the Hurwitz zeta truncated at a generous
// cap). w is scratch for the model weights.
func ksDistancePowerLaw(counts []int, n, xmin int, alpha float64, w []float64) float64 {
	// Model CDF over [xmin, maxDeg] (truncated zeta normalization).
	weights := w[:len(counts)]
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(xmin+i), -alpha)
		total += weights[i]
	}
	ks := 0.0
	acc, accEmp := 0.0, 0.0
	for i, c := range counts {
		acc += weights[i] / total
		accEmp += float64(c) / float64(n)
		if d := math.Abs(accEmp - acc); d > ks {
			ks = d
		}
	}
	return ks
}

// tailCounts histograms tail, whose samples are all >= xmin, over
// [xmin, max(tail)].
func tailCounts(tail []int, xmin int) []int {
	maxDeg := xmin - 1
	for _, d := range tail {
		if d > maxDeg {
			maxDeg = d
		}
	}
	counts := make([]int, maxDeg-xmin+1)
	for _, d := range tail {
		counts[d-xmin]++
	}
	return counts
}

// tailScan walks the candidate xmin values of a Clauset-style scan in
// increasing order over one copy of the sample. Each advance compacts
// the copy in place to the samples >= xmin, keeping their order, so the
// current tail holds exactly the samples FitPowerLaw and FitExponential
// collect for that xmin and every float sum over it keeps its bits —
// without a rescan and reallocation of the whole sample per candidate.
type tailScan struct {
	tail []int
	// hist[k] counts the samples equal to k >= 1, up to the sample
	// maximum, so hist[xmin:] is the tail histogram at every xmin whose
	// tail is non-empty.
	hist []int
}

func newTailScan(degrees []int, maxDeg int) *tailScan {
	sc := &tailScan{tail: append([]int(nil), degrees...), hist: make([]int, maxDeg+1)}
	for _, d := range degrees {
		if d >= 1 {
			sc.hist[d]++
		}
	}
	return sc
}

// advance drops the samples below xmin and returns the remaining tail.
func (sc *tailScan) advance(xmin int) []int {
	k := 0
	for _, d := range sc.tail {
		if d >= xmin {
			sc.tail[k] = d
			k++
		}
	}
	sc.tail = sc.tail[:k]
	return sc.tail
}

// ExponentialFit is the result of a geometric (discrete exponential) MLE
// on a degree tail: P(k) ~ exp(-lambda * k) for k >= XMin.
type ExponentialFit struct {
	Lambda float64
	XMin   int
	KS     float64
	NTail  int
}

// FitExponential fits a geometric tail by MLE. For the shifted geometric
// with support {xmin, xmin+1, ...}, the MLE is
// lambda = ln(1 + 1/(mean(k) - xmin)).
func FitExponential(degrees []int, xmin int) ExponentialFit {
	if xmin < 1 {
		xmin = 1
	}
	var tail []int
	for _, d := range degrees {
		if d >= xmin {
			tail = append(tail, d)
		}
	}
	return fitExponentialTail(tail, xmin, tailCounts(tail, xmin), math.Inf(1))
}

// fitExponentialTail fits the geometric tail to tail and counts as
// fitPowerLawTail takes them. The KS scan stops once its running
// maximum reaches stop, so a KS >= stop means only that the fit cannot
// beat one whose KS is stop.
func fitExponentialTail(tail []int, xmin int, counts []int, stop float64) ExponentialFit {
	if len(tail) < 2 {
		return ExponentialFit{XMin: xmin, NTail: len(tail)}
	}
	mean := 0.0
	for _, d := range tail {
		mean += float64(d)
	}
	mean /= float64(len(tail))
	excess := mean - float64(xmin)
	if excess <= 0 {
		// Degenerate: all mass at xmin.
		return ExponentialFit{Lambda: math.Inf(1), XMin: xmin, NTail: len(tail)}
	}
	lambda := math.Log(1 + 1/excess)
	fit := ExponentialFit{Lambda: lambda, XMin: xmin, NTail: len(tail)}
	fit.KS = ksDistanceGeometric(counts, len(tail), lambda, stop)
	return fit
}

// ksDistanceGeometric computes the KS distance between the empirical tail
// CDF (counts over n tail samples) and the fitted geometric, returning
// early once the running maximum reaches stop.
func ksDistanceGeometric(counts []int, n int, lambda, stop float64) float64 {
	q := math.Exp(-lambda)
	ks := 0.0
	accEmp := 0.0
	// Geometric CDF on shifted support: P(K <= k) = 1 - q^(k-xmin+1).
	for i := range counts {
		accEmp += float64(counts[i]) / float64(n)
		model := 1 - math.Pow(q, float64(i+1))
		if d := math.Abs(accEmp - model); d > ks {
			if ks = d; ks >= stop {
				break // the running maximum only grows
			}
		}
	}
	return ks
}

// TailClassification is the outcome of comparing power-law and exponential
// fits on the same tail.
type TailClassification struct {
	Kind        TailKind
	PowerLaw    PowerLawFit
	Exponential ExponentialFit
	// LogLikRatio is sum log pPL - sum log pExp over the common tail.
	// Positive favours the power law.
	LogLikRatio float64
}

// FitExponentialAuto selects xmin in [1, maxXMin] minimizing the KS
// distance of the geometric tail fit (the same scan FitPowerLawAuto uses
// for the power law) and returns the corresponding fit.
func FitExponentialAuto(degrees []int, maxXMin int) ExponentialFit {
	if len(degrees) == 0 {
		return ExponentialFit{}
	}
	maxDeg := 0
	for _, d := range degrees {
		if d > maxDeg {
			maxDeg = d
		}
	}
	if maxXMin <= 0 || maxXMin > maxDeg {
		maxXMin = maxDeg
	}
	sc := newTailScan(degrees, maxDeg)
	best := ExponentialFit{KS: math.Inf(1)}
	for xmin := 1; xmin <= maxXMin; xmin++ {
		tail := sc.advance(xmin)
		if len(tail) < 10 {
			break // tails only shrink as xmin grows
		}
		if !hasTwoDistinctAtLeast(tail, xmin) {
			continue // degenerate point mass
		}
		// A candidate whose KS reaches best.KS cannot win the strict
		// comparison, so its KS scan may stop there.
		f := fitExponentialTail(tail, xmin, sc.hist[xmin:], best.KS)
		if !math.IsInf(f.Lambda, 1) && f.KS < best.KS {
			best = f
		}
	}
	if math.IsInf(best.KS, 1) {
		return FitExponential(degrees, 1)
	}
	return best
}

// ClassifyTail decides whether the degree distribution looks more like a
// power law or an exponential (geometric). Both models get the same
// treatment: a Clauset-style xmin scan minimizing the KS distance of
// their own tail fit; the model whose best fit tracks the data more
// closely (smaller KS) wins. This symmetric rule is robust where a
// one-sided Clauset comparison is not — a deep, tiny tail can locally
// prefer a power law even when the whole distribution is near-perfectly
// geometric, and a support floor (e.g. min degree 2 in BA graphs) ruins
// full-support likelihood comparisons.
//
// LogLikRatio reports the total log-likelihood difference of the two
// models fit at the common support floor (the minimum observed degree),
// positive favouring the power law; it is diagnostic output, not the
// decision criterion. Small or degenerate samples are TailUndetermined.
func ClassifyTail(degrees []int) TailClassification {
	return classifyFits(degrees, FitPowerLawAuto(degrees, 0), FitExponentialAuto(degrees, 0))
}

// classifyFits is ClassifyTail given the two models' auto-scanned fits.
func classifyFits(degrees []int, pl PowerLawFit, exp ExponentialFit) TailClassification {
	out := TailClassification{PowerLaw: pl, Exponential: exp}
	if pl.NTail < 10 || exp.NTail < 10 {
		out.Kind = TailUndetermined
		return out
	}
	// Diagnostic likelihood ratio at the common support floor.
	minDeg, maxDeg := degrees[0], degrees[0]
	for _, d := range degrees {
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if minDeg < 1 {
		minDeg = 1
	}
	plFloor := FitPowerLaw(degrees, minDeg)
	expFloor := FitExponential(degrees, minDeg)
	if plFloor.NTail >= 10 && !math.IsInf(expFloor.Lambda, 1) && plFloor.Alpha > 1 {
		zPL, zExp := 0.0, 0.0
		for k := minDeg; k <= maxDeg; k++ {
			zPL += math.Pow(float64(k), -plFloor.Alpha)
			zExp += math.Exp(-expFloor.Lambda * float64(k-minDeg))
		}
		for _, d := range degrees {
			if d < minDeg {
				continue
			}
			lpPL := -plFloor.Alpha*math.Log(float64(d)) - math.Log(zPL)
			lpExp := -expFloor.Lambda*float64(d-minDeg) - math.Log(zExp)
			out.LogLikRatio += lpPL - lpExp
		}
	}
	if math.IsInf(exp.Lambda, 1) {
		// Degenerate point mass: certainly not a power law.
		out.Kind = TailExponential
		return out
	}
	if pl.KS < exp.KS {
		out.Kind = TailPowerLaw
	} else {
		out.Kind = TailExponential
	}
	return out
}

// hasTwoDistinctAtLeast reports whether the sample restricted to values
// >= xmin contains at least two distinct values — i.e. a tail a
// distribution fit can actually be tested on.
func hasTwoDistinctAtLeast(degrees []int, xmin int) bool {
	first := -1
	for _, d := range degrees {
		if d < xmin {
			continue
		}
		if first == -1 {
			first = d
		} else if d != first {
			return true
		}
	}
	return false
}
