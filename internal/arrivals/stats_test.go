package arrivals

import (
	"math"
	"sort"
)

// Goodness-of-fit machinery for the statistical test battery. The tests are
// seeded, so they are deterministic regression tests shaped like hypothesis
// tests: each pins a sampled path against its analytic target at the 5%
// level, and a code change that skews the samplers or envelopes fails them
// permanently, not flakily.

// KSExponential returns the two-sided Kolmogorov–Smirnov statistic of the
// sample against the exponential distribution with the given rate:
// D_n = sup |F_n(x) − (1 − e^{−rate·x})|. The input need not be sorted.
func KSExponential(sample []float64, rate float64) float64 {
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	n := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := 1 - math.Exp(-rate*x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// KSCritical returns the asymptotic 5% critical value for the KS statistic
// at sample size n: 1.3581/√n. A statistic above it rejects the null.
func KSCritical(n int) float64 {
	return 1.3581 / math.Sqrt(float64(n))
}

// ChiSquare returns Pearson's statistic Σ (obs−exp)²/exp over the bins,
// skipping bins with non-positive expectation, and the degrees of freedom
// (contributing bins − 1).
func ChiSquare(obs, exp []float64) (stat float64, dof int) {
	for i := range obs {
		if i >= len(exp) || exp[i] <= 0 {
			continue
		}
		d := obs[i] - exp[i]
		stat += d * d / exp[i]
		dof++
	}
	if dof > 0 {
		dof--
	}
	return stat, dof
}

// ChiSquareCritical returns the 5% critical value of the χ² distribution
// with dof degrees of freedom, via the Wilson–Hilferty cube approximation
// (accurate to ~0.1% for dof ≥ 3).
func ChiSquareCritical(dof int) float64 {
	if dof <= 0 {
		return 0
	}
	k := float64(dof)
	const z95 = 1.6448536269514722 // Φ⁻¹(0.95)
	v := 1 - 2/(9*k) + z95*math.Sqrt(2/(9*k))
	return k * v * v * v
}

// PoissonPMF returns P(X = k) for X ~ Poisson(mean), computed in log space
// to stay finite for large means.
func PoissonPMF(k int, mean float64) float64 {
	if mean <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	logp := float64(k)*math.Log(mean) - mean
	for i := 2; i <= k; i++ {
		logp -= math.Log(float64(i))
	}
	return math.Exp(logp)
}

// Integrate returns ∫ p.Rate dt over [t0, t1] by composite Simpson's rule —
// the expected arrival count on the interval. steps is rounded up to even.
func Integrate(p Process, t0, t1 float64, steps int) float64 {
	if t1 <= t0 {
		return 0
	}
	if steps < 2 {
		steps = 2
	}
	if steps%2 == 1 {
		steps++
	}
	h := (t1 - t0) / float64(steps)
	sum := p.Rate(t0) + p.Rate(t1)
	for i := 1; i < steps; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4.0
		}
		sum += w * p.Rate(t0+float64(i)*h)
	}
	return sum * h / 3
}
