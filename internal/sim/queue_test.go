package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// checkQueue audits both event queues. The heap: every slot's event knows its
// position, and no entry sorts before its parent. The calendar: bottom is
// sorted latest-first and holds only drained buckets, every chained event
// sits in the chain its time maps to, after the drained mark and before the
// horizon, every far event is at or beyond the horizon with the cached
// minimum exact, the counts add up to Pending, no event is linked twice, and
// nothing on the free list is queued or still chained.
func checkQueue(t *testing.T, k *Kernel) {
	t.Helper()
	seen := make(map[*Event]string, k.Pending())
	link := func(e *Event, where string) {
		if was, dup := seen[e]; dup {
			t.Fatalf("event at t=%v linked twice: %s and %s", e.At, was, where)
		}
		seen[e] = where
	}
	for i, ent := range k.queue {
		link(ent.e, "heap")
		if int(ent.e.idx) != i {
			t.Fatalf("slot %d holds an event with idx=%d", i, ent.e.idx)
		}
		if ent.e.At != ent.at {
			t.Fatalf("slot %d key at=%v, event At=%v", i, ent.at, ent.e.At)
		}
		if i > 0 && ent.before(k.queue[(i-1)/arity]) {
			t.Fatalf("slot %d sorts before its parent", i)
		}
	}
	for i, ent := range k.bottom {
		link(ent.e, "bottom")
		if ent.e.At != ent.at || ent.e.seq != ent.seq || ent.e.next != nil {
			t.Fatalf("bottom[%d] key (%v, %d), event (%v, %d, next=%p)", i, ent.at, ent.seq, ent.e.At, ent.e.seq, ent.e.next)
		}
		if b := k.bucketOf(ent.at); b > k.cur {
			t.Fatalf("bottom[%d] is of bucket %d, past the drained mark %d", i, b, k.cur)
		}
		if i > 0 && !ent.before(k.bottom[i-1]) {
			t.Fatalf("bottom[%d] does not fire before bottom[%d]", i, i-1)
		}
	}
	ring := 0
	for slot, e := range k.heads {
		for ; e != nil; e = e.next {
			link(e, "ring")
			ring++
			b := k.bucketOf(e.At)
			if int(b&int64(len(k.heads)-1)) != slot || b <= k.cur || b >= k.horizon {
				t.Fatalf("chain %d holds t=%v of bucket %d (mark %d, horizon %d, %d heads)", slot, e.At, b, k.cur, k.horizon, len(k.heads))
			}
		}
	}
	far, farMin := 0, math.Inf(1)
	for e := k.far; e != nil; e = e.next {
		link(e, "far")
		far++
		farMin = min(farMin, e.At)
		if b := k.bucketOf(e.At); b < k.horizon {
			t.Fatalf("far holds t=%v of bucket %d, inside the horizon %d", e.At, b, k.horizon)
		}
	}
	if farMin != k.farMin {
		t.Fatalf("cached far minimum %v, far chain's is %v", k.farMin, farMin)
	}
	if ring != k.ringN || far != k.farN {
		t.Fatalf("calendar counts: ring %d (ringN %d), far %d (farN %d)", ring, k.ringN, far, k.farN)
	}
	if st := k.Stats(); st.CalendarScheduled-st.CalendarPops != uint64(k.calN()) {
		t.Fatalf("calendar took %d events and gave up %d, yet holds %d", st.CalendarScheduled, st.CalendarPops, k.calN())
	}
	if k.Pending() != len(seen) {
		t.Fatalf("Pending() = %d, %d events are queued", k.Pending(), len(seen))
	}
	for _, e := range k.free {
		if where, queued := seen[e]; queued || e.next != nil {
			t.Fatalf("free list holds an event that is queued (%q) or chained (next=%p)", where, e.next)
		}
	}
}

// TestEventIsOneCacheLine holds Event to 64 bytes: draining a calendar chain
// walks events nothing has touched since they were pushed, and an 80-byte
// struct put At and next on different lines.
func TestEventIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 64 {
		t.Fatalf("Event is %d bytes, want 64", size)
	}
}

// drainEvents makes the events of one calendar bucket: n at four instants a
// quarter-bucket apart, so many tie and seq decides, and clump more at one of
// those instants, as a fleet tick's same-instant burst. Positions and
// sequence numbers are shuffled apart: a chain re-linked by a retune is in no
// particular order.
func drainEvents(rng *Rand, n, clump int) []*Event {
	evs := make([]*Event, n+clump)
	for i := range evs {
		at := 1 + float64(rng.Intn(4))/1024
		if i < clump {
			at = 1 + 2.0/1024
		}
		evs[i] = &Event{At: at}
	}
	seqs := make([]uint64, len(evs))
	for i := range seqs {
		seqs[i] = uint64(i)
	}
	for i := len(evs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		evs[i], evs[j] = evs[j], evs[i]
		k := rng.Intn(i + 1)
		seqs[i], seqs[k] = seqs[k], seqs[i]
	}
	for i, e := range evs {
		e.seq = seqs[i]
	}
	return evs
}

// drainCases are the drains held to zero allocations and timed by
// BenchmarkCalendarDrain: about the mean bucket at N=64, insertion-sorted,
// and a same-instant clump, which goes to slices.SortFunc.
var drainCases = []struct {
	name     string
	n, clump int
}{{"bucket=10", 10, 0}, {"clump=600", 0, 600}}

// chainBucket links evs into one calendar chain, each at the head as a push
// does, and returns the chain's head for drain.
func chainBucket(k *Kernel, evs []*Event) **Event {
	h := &k.heads[0]
	for _, e := range evs {
		e.next, *h = *h, e
	}
	k.ringN += len(evs)
	return h
}

// TestDrainSortMatchesReference holds drain's sort, insertion sort up to
// smallBucket entries and slices.SortFunc past it, to a reference sort on
// (at, seq), latest first: random buckets of 0 to 40 entries either side of
// the cut-over, and 600-entry same-instant clumps among nearby times. A
// drain into a warm bottom allocates nothing.
func TestDrainSortMatchesReference(t *testing.T) {
	rng := NewRand(29)
	k := NewKernel()
	check := func(what string, evs []*Event) {
		t.Helper()
		k.bottom = k.bottom[:0]
		k.drain(chainBucket(k, evs))
		want := make([]entry, len(evs))
		for i, e := range evs {
			want[i] = entry{at: e.At, seq: e.seq, e: e}
		}
		slices.SortFunc(want, func(x, y entry) int {
			return cmp.Or(cmp.Compare(y.at, x.at), cmp.Compare(y.seq, x.seq))
		})
		if !slices.Equal(k.bottom, want) {
			t.Fatalf("%s: drained %v, want %v", what, k.bottom, want)
		}
		if k.ringN != 0 || k.heads[0] != nil {
			t.Fatalf("%s: drain left %d events counted on the ring", what, k.ringN)
		}
	}
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			check("bucket", drainEvents(rng, n, 0))
		}
	}
	for trial := 0; trial < 5; trial++ {
		check("clump", drainEvents(rng, 200, 600))
	}

	for _, c := range drainCases {
		evs := drainEvents(rng, c.n, c.clump)
		drain := func() {
			k.bottom = k.bottom[:0]
			k.drain(chainBucket(k, evs))
		}
		if avg := testing.AllocsPerRun(20, drain); avg != 0 {
			t.Fatalf("%s: a drain allocates %v times", c.name, avg)
		}
	}
}

// churnTail is where the churn test's fleet mix ends: a day, not the fleet's
// 100 s, so a quiet stretch leaves events waiting beyond any ring's horizon.
const churnTail = 1e5

// churnPhase is one stretch of a queue-churn case.
type churnPhase struct {
	prefill      int       // anonymous events spread evenly over the next 1.25 s, scheduled first
	ops, pending int       // operations, and the live schedulings the queue fills to
	runEvery     int       // a Run comes about once per this many operations
	spans        []float64 // how far a Run moves the horizon, one drawn per Run
}

// TestQueueChurnMatchesSortedReference drives the queue through every way an
// event can enter, move in or leave it — At, AtAnon, AtAnonArg, Cancel,
// Reschedule, Reuse of fired structs, events scheduled by events — with many
// equal times, and holds what fires to the live schedule sorted on (time,
// scheduling order): each Run fires exactly the schedulings due, in that
// order. That sort is the queue's whole contract; the typed heap and the
// calendar beside it are one way to meet it.
//
// The grid cases draw times from a quarter-second grid eight slots wide, so
// most collide. The fleet-mix cases draw delays from the fleet's six-decade
// histogram with exact ties across anonymous and handle events, have a fired
// event schedule a successor a tick or so ahead one time in three, and pass
// through a burst, quiet stretches that leave only far events and a dense
// stretch whose Runs cross many buckets, under horizons that fall inside a
// bucket and are then extended; they must reach every path of the calendar.
func TestQueueChurnMatchesSortedReference(t *testing.T) {
	// sched is the reference's record of one scheduling.
	type sched struct {
		at   Time
		seq  int    // the test's own scheduling counter
		e    *Event // nil for anonymous events
		pos  int    // index in handles, for a live handle-carrying scheduling
		live bool   // scheduled, not cancelled, not fired
	}
	grid := []float64{0, 0.25, 0.5}
	burst := churnPhase{prefill: 4800, ops: 12000, pending: 2000, runEvery: 300, spans: []float64{0.001, 0.004, 0.016, 0.05}}
	sparse := churnPhase{ops: 5000, pending: 48, runEvery: 12, spans: []float64{0.002, 0.05, 0.4, 3, 40, 4000}}
	dense := churnPhase{ops: 4000, pending: 3000, runEvery: 60, spans: []float64{0.01, 0.1, 0.5}}
	mixPhases := []churnPhase{burst, sparse, dense, sparse, dense}
	for _, tc := range []struct {
		name   string
		seed   uint64
		mix    bool
		phases []churnPhase
	}{
		{name: "seed=1/pending=64", seed: 1, phases: []churnPhase{{0, 4000, 64, 64, grid}}},
		{name: "seed=2/pending=700", seed: 2, phases: []churnPhase{{0, 6000, 700, 700, grid}}},
		{name: "seed=3/pending=10000", seed: 3, phases: []churnPhase{{0, 30_000, 10_000, 10_000, grid}}},
		{name: "fleet-mix/seed=4", seed: 4, mix: true, phases: mixPhases},
		{name: "fleet-mix/seed=5", seed: 5, mix: true, phases: mixPhases},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			rng := NewRand(tc.seed)
			var (
				table   []sched  // every scheduling, by id
				ids     []int    // the live ones, and those that left since the last Run
				handles []int    // ids of the live handle-carrying ones
				spent   []*Event // fired handles, for Reuse
				got     []int    // ids in the order they fired
				seq     int
				nLive   int
				target  int // the current phase's pending
				lastAt  Time
			)
			// when draws the time of a scheduling. In the fleet mix a handle
			// event, like the flow completions it stands for, is a tenth of a
			// second to ten ahead, so the heap root is rarely the next event.
			when := func(handle bool) Time {
				switch {
				case !tc.mix:
					// A quarter-second grid eight slots wide: most times collide.
					return k.Now() + float64(rng.Intn(8))/4
				case lastAt >= k.Now() && rng.Intn(8) == 0:
					return lastAt // an exact tie with whatever was scheduled last
				case handle:
					lastAt = k.Now() + 0.1*math.Pow(100, rng.Float64())
				default:
					lastAt = k.Now() + fleetMixDelay(rng, churnTail)
				}
				return lastAt
			}
			// add records the scheduling about to be made and returns its id.
			add := func(at Time) int {
				table = append(table, sched{at: at, seq: seq, live: true})
				ids = append(ids, len(table)-1)
				seq++
				nLive++
				return len(table) - 1
			}
			hold := func(id int, e *Event) {
				table[id].e, table[id].pos = e, len(handles)
				handles = append(handles, id)
			}
			// drop takes id, cancelled or fired, out of the live schedule.
			drop := func(id int) {
				s := &table[id]
				s.live = false
				nLive--
				if s.e != nil {
					last := handles[len(handles)-1]
					handles[s.pos], table[last].pos = last, s.pos
					handles = handles[:len(handles)-1]
				}
			}
			var fire func(id int)
			argFn := func(arg any) { fire(arg.(int)) }
			fire = func(id int) {
				got = append(got, id)
				if tc.mix && nLive-len(got) < target {
					// Events schedule events, as in the fleet, so a Run works
					// through a standing population of half the phase's
					// pending: one time in three the request pipeline's
					// hand-off, a tick or a few ahead.
					at := k.Now() + fleetMixDelay(rng, churnTail)
					if rng.Intn(3) == 0 {
						at = k.Now() + 1e-5*float64(1+rng.Intn(40))
					}
					k.AtAnonArg(at, argFn, add(at))
				}
			}
			// ran checks one Run against the schedule: it fired, in (time,
			// scheduling order), exactly what was due.
			ran := func(op int, until Time, n uint64) {
				if int(n) != len(got) {
					t.Fatalf("op %d: Run(%v) returned %d, %d callbacks ran", op, until, n, len(got))
				}
				prev := -1
				for i, id := range got {
					s := &table[id]
					if !s.live {
						t.Fatalf("op %d: firing %d was scheduling %d, which is not live", op, i, id)
					}
					if p := table[max(prev, 0)]; prev >= 0 && (s.at < p.at || s.at == p.at && s.seq < p.seq) {
						t.Fatalf("op %d: firing %d was (t=%v, #%d) after (t=%v, #%d)", op, i, s.at, s.seq, p.at, p.seq)
					}
					if s.at > until {
						t.Fatalf("op %d: Run(%v) fired an event at %v", op, until, s.at)
					}
					if s.e != nil {
						if s.e.idx != -1 || s.e.Pending() {
							t.Fatalf("op %d: fired event %d still claims a slot (idx=%d)", op, id, s.e.idx)
						}
						spent = append(spent, s.e)
					}
					drop(id)
					prev = id
				}
				keep := ids[:0]
				for _, id := range ids {
					if s := &table[id]; s.live {
						if s.at <= until {
							t.Fatalf("op %d: Run(%v) left scheduling %d, due at %v, unfired", op, until, id, s.at)
						}
						keep = append(keep, id)
					}
				}
				ids, got = keep, got[:0]
			}
			op := 0
			for _, ph := range tc.phases {
				for i := 0; i < ph.prefill; i++ {
					at := k.Now() + 1.25*rng.Float64()
					k.AtAnonArg(at, argFn, add(at))
				}
				deepest := 0
				target = ph.pending / 2
				for end := op + ph.ops; op < end; op++ {
					var touched *Event
					// Schedulings outnumber cancellations, so the queue fills
					// to ph.pending; a run empties the near end of the schedule.
					kind := rng.Intn(9)
					if nLive >= ph.pending && kind < 6 {
						kind = 6 + rng.Intn(3) // full: only cancel or move
					}
					if rng.Intn(ph.runEvery) == 0 {
						kind = 9
					}
					deepest = max(deepest, nLive)
					switch {
					case kind < 2:
						at := when(true)
						id := add(at)
						touched = k.At(at, func() { fire(id) })
						hold(id, touched)
					case kind < 4:
						at := when(false)
						id := add(at)
						k.AtAnon(at, func() { fire(id) })
					case kind < 5:
						at := when(false)
						k.AtAnonArg(at, argFn, add(at))
					case kind < 6:
						if len(spent) == 0 {
							continue
						}
						e := spent[len(spent)-1]
						spent = spent[:len(spent)-1]
						at := when(true)
						id := add(at)
						if k.Reuse(e, at, func() { fire(id) }) != e {
							t.Fatal("Reuse did not recycle a fired event")
						}
						touched = e
						hold(id, e)
					case kind < 7:
						if len(handles) == 0 {
							continue
						}
						id := handles[rng.Intn(len(handles))]
						table[id].e.Cancel()
						drop(id)
					case kind < 9:
						if len(handles) == 0 {
							continue
						}
						s := &table[handles[rng.Intn(len(handles))]]
						touched = s.e
						s.at = when(true)
						if !k.Reschedule(touched, s.at) {
							t.Fatal("Reschedule refused a pending event")
						}
						s.seq = seq
						seq++
					default:
						until := k.Now() + ph.spans[rng.Intn(len(ph.spans))]
						ran(op, until, k.Run(until))
					}
					if touched != nil && k.queue[touched.idx].e != touched {
						t.Fatalf("op %d: event idx=%d does not point at its slot", op, touched.idx)
					}
					if k.Pending() <= 64 || op%32 == 0 {
						checkQueue(t, k)
					}
				}
				want := ph.pending
				if tc.mix {
					want = target // what Runs sustain; operations add to it between them
				}
				if deepest < want {
					t.Fatalf("queue only reached %d pending, want %d", deepest, want)
				}
			}
			// Drain: everything still live fires, in order.
			target = 0
			ran(op, math.Inf(1), k.RunAll(0))
			if k.Pending() != 0 || nLive != 0 {
				t.Fatalf("%d slots and %d live schedulings left after RunAll", k.Pending(), nLive)
			}
			checkQueue(t, k)
			if st := k.Stats(); tc.mix && (st.RetunesNarrower == 0 || st.RetunesWider == 0 || st.HeadGrowths == 0 ||
				st.Jumps == 0 || st.FarRescans == 0 || st.BottomInserts == 0) {
				t.Fatalf("a calendar path was never taken — narrower, wider, head growth, ring-empty jump, far re-scan, bottom insert: %+v", st)
			}
		})
	}
}

// TestUnrepresentableTimesWaitOnFar pins what happens to a time whose bucket
// number does not fit an int64: it is not converted. Such events wait on the
// far chain, count as pending, never fire under a finite horizon and fire
// last, in scheduling order, when everything is run.
func TestUnrepresentableTimesWaitOnFar(t *testing.T) {
	k := NewKernel()
	var got []int
	log := func(arg any) { got = append(got, arg.(int)) }
	k.AtAnonArg(math.Inf(1), log, 4)
	k.AtAnonArg(1e300, log, 2)
	k.AtAnonArg(math.Inf(1), log, 5)
	k.AtAnonArg(1e300, log, 3)
	k.AtAnonArg(5, log, 1)
	k.At(math.Inf(1), func() { got = append(got, 6) })
	k.AtAnonArg(0.5, log, 0)
	checkQueue(t, k)
	if n := k.Run(1e9); n != 2 || k.Pending() != 5 || k.farN != 4 {
		t.Fatalf("Run(1e9) fired %d, %d pending, %d on far; want 2, 5, 4", n, k.Pending(), k.farN)
	}
	checkQueue(t, k)
	k.AtAnonArg(math.Inf(1), log, 7)
	if n := k.RunAll(0); n != 6 || k.Pending() != 0 {
		t.Fatalf("RunAll fired %d, %d pending; want 6, 0", n, k.Pending())
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("fired in order %v", got)
		}
	}
	if !math.IsInf(k.Now(), 1) {
		t.Fatalf("clock at %v after the +Inf events", k.Now())
	}
	// With the clock at +Inf the only time left to schedule at is +Inf.
	k.AtAnonArg(math.Inf(1), log, 8)
	checkQueue(t, k)
	if k.RunAll(0) != 1 || got[8] != 8 {
		t.Fatalf("event scheduled at +Inf with the clock at +Inf did not fire: %v", got)
	}
}
