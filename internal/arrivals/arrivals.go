// Package arrivals defines the open-loop arrival processes that drive
// aggregated flow classes. Where the paper's clients are closed-loop —
// each waits for its reply before thinking and sending again, so offered
// load is capped by client count — an open-loop process offers load as a
// pure function of time, independent of how the system is coping. That is
// the regime where overload is even possible, and it is how a class models
// up to 10^6 users without 10^6 request objects: the process yields a
// per-user rate envelope, and the class multiplies by its user count.
//
// Every process is deterministic: Rate(t) is an analytic envelope, not a
// sample path. Stochastic sampling (Lewis–Shedler thinning in Sample) is
// used only by the statistical test battery that pins the envelopes to
// their analytic targets.
package arrivals

import (
	"math"
	"sort"

	"archadapt/internal/sim"
)

// Process is a deterministic arrival-rate envelope. Rate returns the
// instantaneous arrival rate (requests/sec per modeled user) at simulated
// time t; an aggregated class scales it by its user count.
type Process interface {
	Rate(t float64) float64
}

// Poisson is a homogeneous process: constant rate Lambda. The aggregate of
// n users is Poisson with rate n·Lambda — the superposition property the
// aggregation model rests on.
type Poisson struct {
	Lambda float64
}

// Rate returns Lambda for all t.
func (p Poisson) Rate(float64) float64 {
	if p.Lambda < 0 {
		return 0
	}
	return p.Lambda
}

// Burst is a multiplicative rate spike — the flash-crowd ingredient.
type Burst struct {
	At       float64 // start time (seconds)
	Duration float64
	Factor   float64 // rate multiplier while active (e.g. 8 for a flash crowd)
}

// Diurnal is a sinusoidal day/night envelope around a base rate, with
// optional flash-crowd bursts layered on top:
//
//	rate(t) = Base · (1 + Swing·sin(2π·t/Period)) · Π active bursts
//
// Overlapping bursts compound. The envelope is clamped at zero.
type Diurnal struct {
	Base   float64
	Swing  float64 // amplitude as a fraction of Base, in [0, 1]
	Period float64 // seconds per cycle (a scenario "day")
	Bursts []Burst
}

// Rate returns the envelope at t.
func (d Diurnal) Rate(t float64) float64 {
	period := d.Period
	if period <= 0 {
		period = 86400
	}
	r := d.Base * (1 + d.Swing*math.Sin(2*math.Pi*(t/period)))
	for _, b := range d.Bursts {
		if t >= b.At && t < b.At+b.Duration {
			r *= b.Factor
		}
	}
	if r < 0 || math.IsNaN(r) {
		r = 0
	}
	return r
}

// Trace is a trace-driven schedule: a right-continuous step function. The
// rate is Rates[i] from Times[i] (inclusive) until Times[i+1] (exclusive),
// and zero before Times[0]. Times must be ascending and the slices equal
// length.
type Trace struct {
	Times []float64
	Rates []float64
}

// Rate returns the step value in effect at t.
func (tr Trace) Rate(t float64) float64 {
	i := sort.SearchFloat64s(tr.Times, t)
	if i < len(tr.Times) && tr.Times[i] == t {
		i++
	}
	if i == 0 {
		return 0
	}
	r := tr.Rates[i-1]
	if r < 0 {
		return 0
	}
	return r
}

// Peak returns an upper bound on p.Rate over [0, horizon], the thinning
// envelope Sample needs. Known process types get their exact analytic
// bound; anything else is scanned numerically with a safety margin.
func Peak(p Process, horizon float64) float64 {
	switch q := p.(type) {
	case Poisson:
		return q.Rate(0)
	case Diurnal:
		bound := q.Base * (1 + math.Abs(q.Swing))
		factor := 1.0
		for _, b := range q.Bursts {
			if b.Factor > 1 {
				factor *= b.Factor
			}
		}
		return bound * factor
	case Trace:
		max := 0.0
		for _, r := range q.Rates {
			if r > max {
				max = r
			}
		}
		return max
	default:
		max := 0.0
		const steps = 10000
		for i := 0; i <= steps; i++ {
			if r := p.Rate(horizon * float64(i) / steps); r > max {
				max = r
			}
		}
		return max * 1.25
	}
}

// Sample draws one sample path of arrival times on [0, horizon) from the
// non-homogeneous Poisson process with intensity p.Rate, by Lewis–Shedler
// thinning: candidate arrivals at the constant envelope rate maxRate are
// kept with probability Rate(t)/maxRate. maxRate must dominate the rate
// over the horizon (use Peak). Used by the statistical test battery only —
// the simulation itself consumes the analytic envelope.
func Sample(p Process, horizon, maxRate float64, r *sim.Rand) []float64 {
	if maxRate <= 0 {
		return nil
	}
	var ts []float64
	t := 0.0
	for {
		t += r.Exp(1 / maxRate)
		if t >= horizon {
			return ts
		}
		if r.Float64()*maxRate < p.Rate(t) {
			ts = append(ts, t)
		}
	}
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
