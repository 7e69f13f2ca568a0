package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []float64
	times := []float64{5, 1, 3, 2, 4, 2.5}
	for _, at := range times {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.Run(10)
	want := append([]float64(nil), times...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v (order %v)", i, got[i], want[i], got)
		}
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1.0, func() { got = append(got, i) })
	}
	k.Run(2)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestKernelHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(1, func() { fired++ })
	k.At(2, func() { fired++ })
	k.At(3, func() { fired++ })
	if n := k.Run(2); n != 2 {
		t.Fatalf("Run(2) executed %d events, want 2", n)
	}
	if k.Now() != 2 {
		t.Fatalf("clock at %v after Run(2), want 2", k.Now())
	}
	if n := k.Run(5); n != 1 {
		t.Fatalf("second Run executed %d, want 1", n)
	}
	if fired != 3 {
		t.Fatalf("fired=%d, want 3", fired)
	}
	if k.Now() != 5 {
		t.Fatalf("clock should advance to horizon, got %v", k.Now())
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.At(1, func() { fired = true })
	k.Cancel(e)
	if e.Pending() || k.Pending() != 0 {
		t.Fatalf("a cancelled event still queued: Pending()=%v, %d queued", e.Pending(), k.Pending())
	}
	k.Cancel(e) // a second Cancel is a no-op
	k.Run(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if k.Executed() != 0 {
		t.Fatalf("executed=%d, want 0", k.Executed())
	}
}

func TestKernelEventsScheduleEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			k.After(0.5, recur)
		}
	}
	k.At(0, recur)
	k.Run(49.5) // exactly the time of the 100th call
	if depth != 100 {
		t.Fatalf("depth=%d, want 100", depth)
	}
	if k.Executed() != 100 {
		t.Fatalf("executed=%d, want 100", k.Executed())
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {})
	k.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(1, func() {})
}

// A NaN horizon compares false against every event time, so a re-arming
// ticker would keep Run looping forever; it must panic instead.
func TestKernelRunNaNHorizonPanics(t *testing.T) {
	k := NewKernel()
	k.Ticker(1, 1, func(Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Run(NaN) did not panic")
		}
	}()
	k.Run(math.NaN())
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var ticks []float64
	stop := k.Ticker(1, 2, func(now float64) { ticks = append(ticks, now) })
	k.At(8, func() { stop() })
	k.Run(20)
	want := []float64{1, 3, 5, 7}
	if len(ticks) != len(want) {
		t.Fatalf("ticks=%v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks=%v, want %v", ticks, want)
		}
	}
}

// TestTickerAllocatesTwice: starting a ticker allocates its record and its
// stop function; its ticks and its stop allocate nothing.
func TestTickerAllocatesTwice(t *testing.T) {
	k := NewKernel()
	ticks := 0
	fn := func(Time) { ticks++ }
	run := func() {
		stop := k.Ticker(k.Now()+1, 1, fn)
		k.Run(k.Now() + 3.5)
		stop()
	}
	run()
	if avg := testing.AllocsPerRun(100, run); avg > 2 {
		t.Errorf("%v allocations per ticker, want at most 2", avg)
	}
	if ticks != 3*102 {
		t.Errorf("%d ticks, want %d", ticks, 3*102)
	}
}

// TestTickerRejectsBadPeriods: a period that is not positive and finite
// panics at the call. A NaN period used to fire its first tick and then panic
// re-arming, inside the callback; a +Inf one re-armed at +Inf until RunAll hit
// its event cap.
func TestTickerRejectsBadPeriods(t *testing.T) {
	for _, period := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(period), func(t *testing.T) {
			k := NewKernel()
			got := func() (msg any) {
				defer func() { msg = recover() }()
				k.Ticker(1, period, func(Time) {})
				return nil
			}()
			if got != "sim: Ticker period must be positive" {
				t.Fatalf("Ticker(1, %v) panicked with %v", period, got)
			}
			if k.Pending() != 0 {
				t.Fatalf("a rejected Ticker left %d events queued", k.Pending())
			}
		})
	}
}

func TestRunAllDrains(t *testing.T) {
	k := NewKernel()
	n := 0
	for i := 0; i < 50; i++ {
		k.At(float64(i), func() { n++ })
	}
	if got := k.RunAll(0); got != 50 {
		t.Fatalf("RunAll executed %d, want 50", got)
	}
	if n != 50 {
		t.Fatalf("n=%d", n)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(7)
	a := r.Fork("clients")
	b := r.Fork("servers")
	if a.Uint64() == b.Uint64() {
		t.Fatal("forked streams start identically")
	}
	// Fork must be a pure function of (seed, label).
	r2 := NewRand(7)
	a2 := r2.Fork("clients")
	aa, aa2 := NewRand(7).Fork("clients").Uint64(), a2.Uint64()
	if aa != aa2 {
		t.Fatal("Fork not deterministic")
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(123)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("Exp mean=%v, want ~2.0", mean)
	}
}

func TestRandIntnBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 1; i < 50; i++ {
			v := r.Intn(i)
			if v < 0 || v >= i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: event execution order equals sorted (time, seq) order for random
// schedules.
func TestKernelOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := NewKernel()
		type stamp struct {
			at  float64
			seq int
		}
		var fired []stamp
		for i, v := range raw {
			at := float64(v%997) / 10
			i := i
			k.At(at, func() { fired = append(fired, stamp{at, i}) })
		}
		k.Run(1e9)
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleMovesEvent(t *testing.T) {
	k := NewKernel()
	var order []string
	e := k.At(1, func() { order = append(order, "moved") })
	k.At(2, func() { order = append(order, "fixed") })
	if !k.Reschedule(e, 3) {
		t.Fatal("Reschedule refused a pending event")
	}
	k.RunAll(0)
	if len(order) != 2 || order[0] != "fixed" || order[1] != "moved" {
		t.Fatalf("order=%v, want [fixed moved]", order)
	}
}

func TestRescheduleTieBreaksLikeFreshSchedule(t *testing.T) {
	// A rescheduled event lands at the same time as a previously scheduled
	// one: it must fire after it, exactly as a Cancel+At pair would.
	k := NewKernel()
	var order []string
	e := k.At(1, func() { order = append(order, "rescheduled") })
	k.At(5, func() { order = append(order, "existing") })
	k.Reschedule(e, 5)
	k.RunAll(0)
	if len(order) != 2 || order[0] != "existing" || order[1] != "rescheduled" {
		t.Fatalf("order=%v, want [existing rescheduled]", order)
	}
}

func TestRescheduleRejectsDeadOrFired(t *testing.T) {
	k := NewKernel()
	if k.Reschedule(nil, 1) {
		t.Fatal("rescheduled nil event")
	}
	e := k.At(1, func() {})
	k.Cancel(e)
	if k.Reschedule(e, 2) {
		t.Fatal("rescheduled a cancelled event")
	}
	fired := k.At(0.5, func() {})
	k.RunAll(0)
	if k.Reschedule(fired, 1) {
		t.Fatal("rescheduled an event that already fired")
	}
}

func TestReschedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(1, func() {})
	e := k.At(2, func() {})
	k.Run(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic rescheduling into the past")
		}
	}()
	k.Reschedule(e, 0.5)
}

func TestAnonEventsFIFOWithNamed(t *testing.T) {
	// Anonymous (pooled) and named events at the same time fire in
	// scheduling order — pooling must not perturb the (time, seq) order.
	k := NewKernel()
	var order []int
	k.At(1, func() { order = append(order, 1) })
	k.AtAnon(1, func() { order = append(order, 2) })
	k.AtAnonArg(1, func(arg any) { order = append(order, arg.(int)) }, 3)
	k.At(1, func() { order = append(order, 4) })
	k.RunAll(0)
	if len(order) != 4 {
		t.Fatalf("fired %d events", len(order))
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order %v", order)
		}
	}
}

func TestAnonEventPoolRecycles(t *testing.T) {
	// A chain of sequential anonymous events — the control-message pattern —
	// reuses a handful of Event structs instead of allocating per event.
	k := NewKernel()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 1000 {
			k.AfterAnon(1, step)
		}
	}
	k.AfterAnon(1, step)
	k.RunAll(0)
	if n != 1000 {
		t.Fatalf("fired %d, want 1000", n)
	}
	if len(k.free) == 0 {
		t.Fatal("anonymous events were not recycled")
	}
	if len(k.free) > 4 {
		t.Fatalf("pool grew to %d; a sequential chain should reuse one struct", len(k.free))
	}
}

// TestPooledEventTieBreakTable pins the (time, seq) contract across every
// allocation path at once: however an event reaches the queue — fresh At, a
// pooled AtAnon/AtAnonArg (fresh or recycled struct), Reuse of a fired
// struct, or Reschedule of a pending one — same-time events fire in exactly
// the order their *latest* scheduling happened — pinned here as a table
// rather than left implicit in the pooling code.
func TestPooledEventTieBreakTable(t *testing.T) {
	cases := []struct {
		name string
		// build schedules events on a fresh kernel, logging each firing.
		build func(k *Kernel, log func(string))
		want  []string
	}{
		{
			// Warmed pool: recycled anonymous structs must re-enter FIFO at
			// their new scheduling position, not inherit stale sequence state.
			name: "recycled anon structs keep scheduling order",
			build: func(k *Kernel, log func(string)) {
				k.AtAnon(1, func() { log("warm1") })
				k.AtAnon(1, func() { log("warm2") })
				k.Run(1) // both fire; their structs land in the free pool
				k.At(10, func() { log("a") })
				k.AtAnon(10, func() { log("b") }) // recycled struct
				k.AtAnonArg(10, func(arg any) { log(arg.(string)) }, "c")
				k.AtAnon(10, func() { log("d") })
			},
			want: []string{"warm1", "warm2", "a", "b", "c", "d"},
		},
		{
			// A fired named event recycled via Reuse slots in by its Reuse
			// call order, between the At before it and the AtAnon after it.
			name: "reuse after fire re-enters FIFO at reuse time",
			build: func(k *Kernel, log func(string)) {
				e := k.At(1, func() { log("first-life") })
				k.Run(1)
				k.At(10, func() { log("x") })
				k.Reuse(e, 10, func() { log("y") })
				k.AtAnon(10, func() { log("z") })
			},
			want: []string{"first-life", "x", "y", "z"},
		},
		{
			// Reschedule re-sequences: a pending event moved onto a contested
			// time fires after everything already scheduled there, before
			// anything scheduled later — exactly like a Cancel+At pair.
			name: "reschedule re-sequences behind existing same-time events",
			build: func(k *Kernel, log func(string)) {
				e := k.At(2, func() { log("moved") })
				k.At(10, func() { log("a") })
				k.AtAnon(10, func() { log("b") })
				k.Reschedule(e, 10)
				k.AtAnon(10, func() { log("c") })
			},
			want: []string{"a", "b", "moved", "c"},
		},
		{
			// The full churn cycle: schedule, reschedule, fire, then Reuse the
			// same struct onto a contested time. The second life's position
			// comes from the Reuse call alone; the earlier Reschedule must
			// leave no trace in the tie-break.
			name: "reuse after reschedule carries no stale sequence",
			build: func(k *Kernel, log func(string)) {
				e := k.At(1, func() { log("second") })
				k.Reschedule(e, 2)
				k.Run(2) // fires at 2, struct now free
				late := k.At(12, func() { log("tail") })
				k.AtAnon(10, func() { log("head") })
				k.Reuse(e, 10, func() { log("mid") })
				k.Reschedule(late, 10)
			},
			want: []string{"second", "head", "mid", "tail"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			var got []string
			tc.build(k, func(s string) { got = append(got, s) })
			k.RunAll(0)
			if len(got) != len(tc.want) {
				t.Fatalf("fired %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("fired %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestReuseRecyclesFiredEvent(t *testing.T) {
	k := NewKernel()
	n := 0
	e := k.At(1, func() { n++ })
	k.Run(1)
	// e fired and was popped: Reuse must recycle the same struct.
	e2 := k.Reuse(e, 2, func() { n += 10 })
	if e2 != e {
		t.Fatal("Reuse did not recycle the fired event struct")
	}
	k.Run(2)
	if n != 11 {
		t.Fatalf("n=%d, want 11", n)
	}
	// A queued event cannot be recycled; Reuse must allocate.
	pending := k.At(5, func() {})
	if got := k.Reuse(pending, 6, func() {}); got == pending {
		t.Fatal("Reuse recycled a still-queued event")
	}
	// A cancelled one left the queue at once, so Reuse recycles it.
	k.Cancel(pending)
	if got := k.Reuse(pending, 7, func() { n += 100 }); got != pending {
		t.Fatal("Reuse did not recycle a cancelled event")
	}
	k.RunAll(0)
	if n != 111 {
		t.Fatalf("n=%d, want 111", n)
	}
}
