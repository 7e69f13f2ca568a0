package main

import "time"

// probeBatches is how many timed batches a layer probe reports the median
// of.
const probeBatches = 11

// probeSet collects the layer probes' samples by metric name. A sample is
// already in the metric's unit; the reported value is the median.
type probeSet map[string][]float64

func (p probeSet) add(name string, v float64) { p[name] = append(p[name], v) }

// timeOps times probeBatches batches of ops calls to op and adds one sample
// per batch: host time per call, in units of unit.
func (p probeSet) timeOps(name string, unit time.Duration, ops int, op func(i int)) {
	p.timeBatches(name, unit, ops, func(batch int) {
		for i := 0; i < ops; i++ {
			op(batch*ops + i)
		}
	})
}

// timeBatches is timeOps for work that comes as a whole batch of ops
// operations (a kernel run that fires ops events).
func (p probeSet) timeBatches(name string, unit time.Duration, ops int, batch func(b int)) {
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		batch(b)
		p.add(name, float64(time.Since(t0))/float64(unit)/float64(ops))
	}
}

// stopwatch accumulates the timed part of operations whose set-up must stay
// outside the measurement.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.t0) }

// per returns the accumulated time per operation in units of unit, and
// resets the stopwatch.
func (s *stopwatch) per(unit time.Duration, ops int) float64 {
	v := float64(s.total) / float64(unit) / float64(ops)
	s.total = 0
	return v
}

// hostTimeUnits are the units of calibrated host-time metrics.
var hostTimeUnits = map[string]bool{"ns": true, "us": true, "ms": true, "s": true}

// runProbes runs every layer probe (fixed work, seeded from seed) and fills
// the probe-based layer metrics: the median over batches, host times
// normalised like the end-to-end ones.
func runProbes(vs values, seed uint64, cal *calibrator) {
	ps := probeSet{}
	for _, probe := range layerProbes {
		probe(seed, ps)
		cal.boundary()
	}
	scale := cal.scale()
	for _, d := range perLayer {
		xs, ok := ps[d.name]
		if !ok {
			continue
		}
		v := median(xs)
		if hostTimeUnits[d.unit] {
			v *= scale
		}
		vs.set(d.name, v, len(xs))
	}
}
