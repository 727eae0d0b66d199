package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named number of the report, with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. It sorts a copy; an empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell-Davis estimate of the q-quantile: a
// weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
// weights. A job mix has gaps between its classes; a single order
// statistic jumps across a gap when one job moves, while this estimate
// moves smoothly, so a run's p50 and p90 do not hinge on one job.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the incomplete beta continued fraction by the
// modified Lentz method.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 500; m++ {
		fm := float64(m)
		num := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// minSamplesBeyond is how many samples a percentile needs past it
// before it is reported as measured rather than as a bound.
const minSamplesBeyond = 10

// tailOK reports whether q has at least minSamplesBeyond samples above
// it among n.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minSamplesBeyond
}
