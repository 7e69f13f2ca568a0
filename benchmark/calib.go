package main

import "time"

// calibRefSeconds is the reference loop's time on the host the seed-commit
// numbers in README.md were taken on. Calibrated seconds are raw seconds
// scaled by calibRefSeconds / (this run's reference-loop median), so they
// read as "seconds on the reference host" whatever the current host speed.
const calibRefSeconds = 0.135

// The reference loop is sampled at phase boundaries: once per calibStride of
// host time since the last sample, at least once when calibMinGap has
// passed, at most calibMaxBurst times. Sampling densely matters more than
// the loop's length: the hosts this runs on change speed by 10-20 % within
// seconds, and only samples taken between the timed phases see the same
// changes the phases do.
const (
	calibMinGap   = 250 * time.Millisecond
	calibStride   = time.Second
	calibMaxBurst = 10
)

type calibEvent struct {
	at      float64
	id      uint32
	payload *[4]uint64
}

// calibLoop is the fixed reference work every host-time metric is normalised
// by. It imitates the simulator's hot path — a binary heap of pooled events
// popped and re-pushed at a later time, a map lookup per event, small
// allocations — in two stages, because the simulator slows down with the
// host in two ways: a cache-resident stage that follows CPU contention, and
// a stage with a working set of several megabytes that allocates on every
// other event, which follows memory contention and the garbage collector
// losing its spare core. Against either stage alone the other kind of
// slowdown went uncorrected. The work is a constant: no seed, no input.
func calibLoop() time.Duration {
	start := time.Now()
	calibSink = calibStage(4096, 240_000, 8) + calibStage(65536, 200_000, 2)
	return time.Since(start)
}

// calibStage runs steps pop/push pairs over pending events, allocating a
// payload on every allocEvery-th.
func calibStage(pending uint32, steps, allocEvery int) uint64 {
	heap := make([]*calibEvent, 0, pending)
	byID := make(map[uint32]*calibEvent, pending)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	less := func(a, b *calibEvent) bool {
		return a.at < b.at || (a.at == b.at && a.id < b.id)
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := uint32(0); i < pending; i++ {
		e := &calibEvent{at: float64(next()%1000) / 10, id: i}
		byID[e.id] = e
		heap = append(heap, e)
		up(len(heap) - 1)
	}
	var sink uint64
	for step := 0; step < steps; step++ {
		e := heap[0]
		r := next()
		// The "handler": look a peer up by id and touch it.
		peer := byID[uint32(r>>32)%pending]
		sink += uint64(peer.id)
		if step%allocEvery == 0 {
			e.payload = &[4]uint64{r, sink}
		}
		e.at += 0.1 + float64(r%4096)/256
		down(0)
	}
	return sink
}

// calibSink keeps the reference loop's result observable so the compiler
// cannot drop the work.
var calibSink uint64

// calibrator collects reference-loop samples through a run.
type calibrator struct {
	samples []float64 // seconds
	last    time.Time
}

// warm takes the five samples that precede the first repetition.
func (c *calibrator) warm() {
	for i := 0; i < 5; i++ {
		c.sample()
	}
}

func (c *calibrator) sample() {
	c.samples = append(c.samples, calibLoop().Seconds())
	c.last = time.Now()
}

// boundary is called at every phase boundary, outside the timed and
// memory-accounted intervals.
func (c *calibrator) boundary() {
	since := time.Since(c.last)
	if since < calibMinGap {
		return
	}
	n := min(max(int(since/calibStride), 1), calibMaxBurst)
	for i := 0; i < n; i++ {
		c.sample()
	}
}

// scale turns raw host seconds of this run into calibrated seconds.
func (c *calibrator) scale() float64 { return normalise(1, c.samples, calibRefSeconds) }
