package main

import (
	"math"

	"tkdc/internal/baseline"
	"tkdc/internal/core"
	"tkdc/internal/kernel"
)

// bandRows is how many rows the ε·t band check compares against the
// exact baseline.
const bandRows = 512

// bandFalseAlarm is the chance that a correct sampling backend fails
// the band check: the allowed miss count is the binomial(m, δ) quantile
// at 1 − bandFalseAlarm.
const bandFalseAlarm = 1e-3

// bandCheck runs the band check on the query requests of a workload
// whose backend may miss the band; certified backends are covered by
// the offline check.
func (e *env) bandCheck(clf *core.Classifier, queries []batch) error {
	if !e.w.bandTolerant {
		return nil
	}
	var rows []float64
	n := 0
	for _, q := range queries {
		if n >= bandRows {
			break
		}
		rows = append(rows, q.flat...)
		n += q.n
	}
	labels, err := clf.ClassifyFlat(rows, n)
	if err != nil {
		return err
	}
	return e.bandCheckRows(clf, rows, n, labels)
}

// bandCheckRows compares labels against the exact density of the
// simple baseline on up to bandRows evenly spaced rows. Outside the
// band |f − t| ≤ ε·t a label must be HIGH exactly when f > t. A
// certified backend may miss no row; the sampling backend may miss
// each with probability δ, so it may miss up to the binomial quantile.
func (e *env) bandCheckRows(clf *core.Classifier, rows []float64, n int, labels []core.Label) error {
	kern, err := kernel.NewGaussian(clf.Bandwidths())
	if err != nil {
		return err
	}
	exact := baseline.NewSimple(clf.TrainingData(), kern)
	cfg := clf.Config()
	t, eps := clf.Threshold(), cfg.Epsilon
	dim := clf.Dim()
	step := max(1, n/bandRows)
	outside, misses := 0, 0
	for i := 0; i < n; i += step {
		f := exact.Density(rows[i*dim : (i+1)*dim])
		if math.Abs(f-t) <= eps*t {
			continue
		}
		outside++
		if (f > t) != (labels[i] == core.High) {
			misses++
		}
	}
	allowed := 0
	if e.w.bandTolerant {
		allowed = binomialQuantile(outside, cfg.Delta, 1-bandFalseAlarm)
	}
	e.checkf("labels agree with the exact simple baseline outside the ε·t band", misses <= allowed,
		"%d misses among %d rows outside the band (allowed %d: binomial(%d, δ=%g) quantile at %g)",
		misses, outside, allowed, outside, cfg.Delta, 1-bandFalseAlarm)
	e.facts["band_rows_outside"] = outside
	e.facts["band_misses"] = misses
	e.facts["band_misses_allowed"] = allowed
	return nil
}

// binomialQuantile is the smallest k with P(X ≤ k) ≥ q for X ~ binomial(m, p).
func binomialQuantile(m int, p, q float64) int {
	cdf := 0.0
	for k := 0; k <= m; k++ {
		lg := lgamma(m+1) - lgamma(k+1) - lgamma(m-k+1)
		cdf += math.Exp(lg + float64(k)*math.Log(p) + float64(m-k)*math.Log1p(-p))
		if cdf >= q {
			return k
		}
	}
	return m
}

func lgamma(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}
