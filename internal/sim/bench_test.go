package sim

import (
	"fmt"
	"math"
	"testing"
)

// fleetMix is the spread of scheduling delays measured in a 64-app fleet run,
// as the share of pushes per band: six decades, from the one-tick hand-offs of
// the request pipeline to the control loops' multi-second timers, which no
// single bucket width suits. The last band is open: its caller says how far
// "beyond 10 s" reaches.
var fleetMix = []struct{ share, lo, hi float64 }{
	{0.08, 1e-5, 1e-5}, {0.05, 1e-5, 1e-4}, {0.29, 1e-3, 1e-2}, {0.22, 1e-2, 1e-1},
	{0.18, 0.1, 1}, {0.17, 1, 10}, {0.01, 10, math.Inf(1)},
}

// fleetMixDelay draws one delay from fleetMix, log-uniform within its band,
// the last band ending at tail: 100 s is where the fleet's stops, a day leaves
// events waiting beyond any ring's horizon through a quiet stretch.
func fleetMixDelay(rng *Rand, tail float64) float64 {
	u := rng.Float64()
	for _, m := range fleetMix {
		if u < m.share {
			return m.lo * math.Pow(min(m.hi, tail)/m.lo, rng.Float64())
		}
		u -= m.share
	}
	return tail
}

// kernelHold builds the classic hold model: `pending` events in the queue,
// each of which, when it fires, schedules its successor a random delay ahead.
// It returns the op that fires exactly `events` of them (pop one, push one,
// queue length constant), which isolates the queue's cost per event from
// anything a callback does. Plain, delays are Exp(1) and every event anonymous;
// with fleet set, delays follow the fleet's histogram, an eighth of the events
// carry handles (the flow completions) and one of those is rescheduled per
// eight fires — far more often than the fleet does (one per 220 fires at
// N=64), so that Reschedule's unlink and re-link show in the row.
func kernelHold(fleet bool, pending int) (op func(events int)) {
	k := NewKernel()
	rng := NewRand(1)
	delay := func() float64 { return rng.Exp(1) }
	var handles []*Event
	if fleet {
		// Drawn ahead, so the timed loop pays for the queue and not for Pow.
		drawn, next := make([]float64, 1<<13), 0
		for i := range drawn {
			drawn[i] = fleetMixDelay(rng, 100)
		}
		delay = func() float64 { next++; return drawn[next%len(drawn)] }
		handles = make([]*Event, pending/8)
	}
	left, fires := 0, 0
	fired := func() {
		if fires++; fires%8 == 0 && handles != nil {
			k.Reschedule(handles[rng.Intn(len(handles))], k.Now()+delay())
		}
		left--
	}
	var hold func(any)
	hold = func(any) {
		k.AfterAnonArg(delay(), hold, nil)
		fired()
	}
	for i := range handles {
		var rearm func()
		rearm = func() {
			handles[i] = k.Reuse(handles[i], k.Now()+delay(), rearm)
			fired()
		}
		handles[i] = k.At(delay(), rearm)
	}
	for i := len(handles); i < pending; i++ {
		k.AfterAnonArg(delay(), hold, nil)
	}
	return func(events int) {
		// Run's loop, ended after `events` fires.
		for left = events; left > 0; {
			e := k.next(math.Inf(1))
			k.now = e.At
			k.fire(e)
		}
	}
}

// eachHold visits every hold variant: Exp(1) and the fleet's mix, each at 1k,
// 4k and 64k pending.
func eachHold(visit func(name string, fleet bool, pending int)) {
	for _, fleet := range []bool{false, true} {
		for _, pending := range []int{1 << 10, 1 << 12, 1 << 16} {
			name := fmt.Sprintf("pending=%dk", pending>>10)
			if fleet {
				name = "fleet-mix/" + name
			}
			visit(name, fleet, pending)
		}
	}
}

// BenchmarkKernelHold measures the event queue alone: pop one, push one, at a
// fixed number pending, under Exp(1) delays and under the fleet's mix of
// delays and reschedules.
func BenchmarkKernelHold(b *testing.B) {
	eachHold(func(name string, fleet bool, pending int) {
		b.Run(name, func(b *testing.B) {
			op := kernelHold(fleet, pending)
			b.ReportAllocs()
			b.ResetTimer()
			op(b.N)
		})
	})
}

// TestKernelHoldAllocationFree: the queue recycles everything it uses. Once
// every pending event has been replaced twice over, firing one and scheduling
// its successor allocates nothing — anonymous or handle-carrying, through
// Reuse and Reschedule, at every queue length.
func TestKernelHoldAllocationFree(t *testing.T) {
	eachHold(func(name string, fleet bool, pending int) {
		t.Run(name, func(t *testing.T) {
			op := kernelHold(fleet, pending)
			op(2 * pending)
			const events = 20_000
			if avg := testing.AllocsPerRun(5, func() { op(events) }); avg != 0 {
				t.Fatalf("%v allocations per %d events held at %d pending, want 0", avg, events, pending)
			}
		})
	})
}

// BenchmarkCalendarDrain measures moving one calendar bucket into bottom and
// sorting it, for each of drainCases.
func BenchmarkCalendarDrain(b *testing.B) {
	for _, c := range drainCases {
		b.Run(c.name, func(b *testing.B) {
			k := NewKernel()
			evs := drainEvents(NewRand(1), c.n, c.clump)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.bottom = k.bottom[:0]
				k.drain(chainBucket(k, evs))
			}
		})
	}
}
