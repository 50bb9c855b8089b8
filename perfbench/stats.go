package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) and
// statistics.median compute them, so spreads read the same in this
// benchmark's comparison command and in any external check.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), median(d), q(3)
}

func median(values []float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quantileHD is the Harrell–Davis estimate of the p-quantile (p in (0, 1)):
// the mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
// mass over each one's share (i-1)/n..i/n of the ranks. Where a workload's
// latencies cluster by model and the 90th percentile falls between two
// clusters, a single order statistic jumps from one to the other from run to
// run; the weighted mean moves smoothly. The mass is integrated by the
// midpoint rule and the weights normalised to sum to 1.
func quantileHD(values []float64, p float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := float64(len(d))
	if n == 0 {
		return math.NaN()
	}
	a, b := p*(n+1), (1-p)*(n+1)
	const steps = 64 // per order statistic
	h := 1 / (n * steps)
	sum, weights := 0.0, 0.0
	for i, x := range d {
		w := 0.0
		for k := 0.5; k < steps; k++ {
			u := (float64(i)*steps + k) * h
			w += math.Exp((a-1)*math.Log(u) + (b-1)*math.Log1p(-u))
		}
		sum += w * x
		weights += w
	}
	return sum / weights
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

func secs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = v.Seconds()
	}
	return out
}
