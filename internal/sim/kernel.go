// Package sim provides the discrete-event simulation kernel on which every
// other subsystem in this repository runs.
//
// The paper's evaluation is a pair of 30-minute wall-clock runs on a physical
// testbed. Here the testbed is simulated, so time is virtual: events are
// executed in (time, sequence) order by a single goroutine, which makes runs
// deterministic and lets a 1800-second experiment finish in milliseconds.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of a run.
type Time = float64

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (FIFO tie-break on a monotonic sequence number).
type Event struct {
	At Time
	// The callback is fn(arg). At and AtAnon pass their func() as arg
	// under callFunc, and high-rate schedulers (the monitoring plane's
	// message dispatch) pass a static function plus its receiver, so neither
	// allocates per event: a func value or a pointer fits in an interface.
	fn  func(any)
	arg any
	// The calendar (calendar.go) keys the event on (At, seq) and chains a
	// bucket through next and prev.
	seq        uint64
	next, prev *Event
	queued     bool // in bottom, a chain or far
	// Anonymous events (AtAnon/AtAnonArg) never hand their handle to the
	// caller, so the kernel recycles the Event struct after it fires.
	anon bool
	// 64 bytes: one cache line, so draining a chain, which is a walk through
	// cold events, misses once per event.
}

// Pending reports whether the event is queued: scheduled, and neither fired
// nor cancelled.
func (e *Event) Pending() bool { return e != nil && e.queued }

// callFunc is the static callback under which a func() event runs.
func callFunc(fn any) { fn.(func())() }

// Kernel is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now     Time
	seq     uint64
	running bool

	// The calendar: see calendar.go for what each field holds.
	heads        []*Event
	inv          float64 // 1/width, the width a power of two
	cur, horizon int64
	bottom       []entry
	first        int // bottom's earliest queued entry; 0 when bottom is empty
	far          *Event
	farMin       Time
	ringN, farN  int

	// scratch is drain's merge buffer, at least half the largest bucket past
	// smallBucket drained so far; every slot is clear between drains.
	scratch []entry

	stats Stats
	// free is the recycle pool for anonymous events. Only events whose
	// handles never escaped the kernel land here, so reuse cannot alias a
	// handle someone might still Cancel or Reschedule.
	free Pool[Event]

	// FireHook, when non-nil, observes every fired event at its virtual
	// time, before the callback runs — the observability plane's
	// event-rate counter. It must not schedule or mutate kernel state.
	FireHook func(at Time)
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.initCalendar()
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed returns the number of events that have fired so far; useful for
// tests and for detecting runaway scheduling loops.
func (k *Kernel) Executed() uint64 { return k.stats.Fired }

// Pending returns the number of events queued.
func (k *Kernel) Pending() int { return len(k.bottom) - k.first + k.ringN + k.farN }

// Stats counts the work the event queue has done: plain increments,
// deterministic under a seed, free when unread.
type Stats struct {
	Scheduled   uint64 // every At, AtAnon and AtAnonArg call, Ticker steps included, and every Reschedule that re-arms
	Fired       uint64
	Reschedules uint64

	BucketsDrained uint64 // non-empty calendar buckets sorted into bottom
	RunsMerged     uint64 // monotone runs those buckets' chains were cut into, then merged or insertion-sorted
	BottomInserts  uint64 // pushes that landed in an already drained bucket
	BottomShifts   uint64 // entries of bottom moved by those inserts and by unlinks
	FarRescans     uint64 // times the far chain was re-examined
	Jumps          uint64 // of those, with the whole ring empty and buckets skipped
	HeadGrowths    uint64 // times the ring grew by headStep and the width shrank by as much

	PeakPending int
}

// Stats returns the kernel's work counters so far.
func (k *Kernel) Stats() Stats { return k.stats }

func (k *Kernel) notePeak() {
	if p := k.Pending(); p > k.stats.PeakPending {
		k.stats.PeakPending = p
	}
}

// checkTime validates a scheduling time against the clock; verb names the
// operation in the panic.
//
// Invariants, both: every scheduling time is the clock plus a delay the
// caller computed. fleet's validate and cmd/archadapt's flag parsing reject
// every non-finite option float, operators.Deploy every non-finite or
// negative Placement number, and Ticker every non-finite period, so no input
// yields a NaN; delays come from non-negative constants, Rand draws, the
// service times Deploy validates, message delays and flow ETAs
// (remaining/rate with rate > 0), so nothing lands in the past. Either panic
// is a bug in the caller's arithmetic, and scheduling on would fire it out of
// order.
func (k *Kernel) checkTime(t Time, verb string) {
	if math.IsNaN(t) {
		panic("sim: " + verb + " at NaN time")
	}
	if t < k.now {
		panic(fmt.Sprintf("sim: %s in the past: at=%.9f now=%.9f", verb, t, k.now))
	}
}

// schedule queues e at t under the next sequence number.
func (k *Kernel) schedule(e *Event, t Time) {
	e.At, e.seq = t, k.seq
	k.seq++
	k.stats.Scheduled++
	k.place(e)
	k.notePeak()
}

// At schedules fn at absolute time t. Scheduling in the past (t < Now) is a
// programming error and panics: the kernel cannot rewind its clock.
func (k *Kernel) At(t Time, fn func()) *Event {
	k.checkTime(t, "scheduling")
	e := &Event{fn: callFunc, arg: fn}
	k.schedule(e, t)
	return e
}

// AtAnon schedules fn at absolute time t on a pooled event. No handle is
// returned: anonymous events cannot be cancelled or rescheduled, and their
// Event structs are recycled after they fire. This is the allocation-free
// path for fire-and-forget scheduling (message deliveries, ticker steps).
func (k *Kernel) AtAnon(t Time, fn func()) {
	k.AtAnonArg(t, callFunc, fn)
}

// AtAnonArg schedules fn(arg) at absolute time t on a pooled event. Passing a
// static function plus its receiver instead of a closure makes the whole
// schedule-fire cycle allocation-free when arg is a pointer — the fast path
// for the event bus's dispatch.
func (k *Kernel) AtAnonArg(t Time, fn func(any), arg any) {
	k.checkTime(t, "scheduling")
	e := k.free.Get()
	e.fn, e.arg, e.anon = fn, arg, true
	k.schedule(e, t)
}

// fire runs one popped event's callback, recycling anonymous events first so
// nested scheduling from inside the callback can reuse the struct.
func (k *Kernel) fire(e *Event) {
	if k.FireHook != nil {
		k.FireHook(e.At)
	}
	fn, arg := e.fn, e.arg
	if e.anon {
		e.fn, e.arg, e.anon = nil, nil, false
		k.free.Put(e)
	}
	fn(arg)
	k.stats.Fired++
}

// next removes and returns the earliest event due at or before until, nil when
// there is none: bottom's first entry, once the calendar has been drained up
// to until. The slot it leaves is cleared.
func (k *Kernel) next(until Time) *Event {
	if len(k.bottom) == 0 && k.ringN+k.farN > 0 {
		k.refill(until)
	}
	if len(k.bottom) == 0 || k.bottom[k.first].at > until {
		return nil
	}
	ent := &k.bottom[k.first]
	e := ent.e
	*ent = entry{}
	k.first++
	k.trimBottom()
	e.queued = false
	return e
}

// Cancel takes a pending event out of the queue at once: it will not fire,
// and Reschedule may re-arm it. Cancelling nil, or an event that has already
// fired or been cancelled, is a no-op.
func (k *Kernel) Cancel(e *Event) {
	if e.Pending() {
		k.unlink(e)
	}
}

// Reschedule moves handle event e to absolute time t, keeping its struct and
// callback: a queued event is moved, one that fired or was cancelled is
// queued again — the fast path for completion-event churn in the fluid-flow
// solver, whose every rate change moves a flow's ETA and whose stalled flows
// re-arm their cancelled event when the rate returns. Either way the event
// is sequenced as if newly scheduled, so FIFO tie-breaking at equal times
// matches a fresh At. A move counts in Stats.Reschedules, a re-arm in
// Stats.Scheduled. It returns false, scheduling nothing, only for nil.
func (k *Kernel) Reschedule(e *Event, t Time) bool {
	if e == nil {
		return false
	}
	if !e.queued {
		k.checkTime(t, "scheduling")
		k.schedule(e, t)
		return true
	}
	k.checkTime(t, "rescheduling")
	k.unlink(e)
	e.At, e.seq = t, k.seq
	k.seq++
	k.place(e)
	k.stats.Reschedules++
	return true
}

// Run executes events in order until the queue is empty or the clock would
// pass `until`. Events scheduled exactly at `until` are executed. It returns
// the number of events executed by this call. A NaN horizon panics: no event
// time compares greater than it, so self-re-arming tickers would never let
// the loop end.
func (k *Kernel) Run(until Time) uint64 {
	// Invariants: one driver loop owns the kernel, and callbacks schedule
	// rather than run it, so nothing re-enters Run. A horizon is a validated
	// duration (as above) plus a drain constant.
	if k.running {
		panic("sim: Run re-entered")
	}
	if math.IsNaN(until) {
		panic("sim: Run until NaN time")
	}
	k.running = true
	defer func() { k.running = false }()

	var n uint64
	for {
		e := k.next(until)
		if e == nil {
			break
		}
		k.now = e.At
		k.fire(e)
		n++
	}
	// Advance the clock to the horizon so that successive Run calls with
	// increasing horizons behave like one continuous run.
	if k.now < until {
		k.now = until
	}
	return n
}

// RunAll executes every queued event (including events scheduled by events)
// until the queue drains. It panics after maxEvents to catch runaway loops;
// pass 0 for the default of 100 million.
func (k *Kernel) RunAll(maxEvents uint64) uint64 {
	if maxEvents == 0 {
		maxEvents = 100_000_000
	}
	var n uint64
	for k.Pending() > 0 {
		if n >= maxEvents {
			// Invariant: RunAll drives bounded test and set-up work; the
			// simulations run under Run's horizon. Reaching the cap means
			// something re-arms for ever, which returning would hide.
			panic(fmt.Sprintf("sim: RunAll exceeded %d events at t=%.3f", maxEvents, k.now))
		}
		e := k.next(math.Inf(1))
		k.now = e.At
		k.fire(e)
		n++
	}
	return n
}

// Ticker invokes fn every period seconds, starting at start, until the
// returned stop function is called. fn receives the tick time. The period must
// be positive and finite: a NaN one would panic at the first re-arm, inside a
// callback, and a +Inf one would re-arm at +Inf for ever.
func (k *Kernel) Ticker(start Time, period float64, fn func(Time)) (stop func()) {
	// Invariant: periods are package constants or validated option fields
	// (validate rejects non-finite floats), so only a caller's bug gets here;
	// it panics at the call rather than later, in the kernel's loop.
	if !(period > 0) || math.IsInf(period, 1) {
		panic("sim: Ticker period must be positive")
	}
	t := &ticker{k: k, at: start, period: period, fn: fn}
	k.AtAnonArg(start, tickerStep, t)
	return t.stop
}

// ticker is one Ticker's state. It re-arms itself through AtAnonArg with the
// static tickerStep, so a ticker allocates this record and its stop method
// value, and each tick nothing.
type ticker struct {
	k       *Kernel
	at      Time
	period  float64
	fn      func(Time)
	stopped bool
}

// tickerStep fires ticker a's tick and arms the next one.
func tickerStep(a any) {
	t := a.(*ticker)
	if t.stopped {
		return
	}
	t.fn(t.k.now)
	t.at += t.period
	t.k.AtAnonArg(t.at, tickerStep, t)
}

func (t *ticker) stop() { t.stopped = true }
