package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// checkQueue audits the event queue: bottom[first:] is sorted earliest-first
// and holds only drained buckets, every other slot of bottom's array is clear
// and first is 0 when nothing is in it; every chained event sits in the chain
// its time maps to, after the drained mark and before the horizon, and links
// back to its predecessor through prev; every far event is at or beyond the
// horizon with the cached minimum exact; the counts add up to Pending; no
// event is linked twice; the queued flag is set on every one of them;
// nothing on the free list is queued or still linked; and every slot of the
// merge scratch is clear.
func checkQueue(t *testing.T, k *Kernel) {
	t.Helper()
	seen := make(map[*Event]string, k.Pending())
	link := func(e *Event, where string) {
		if was, dup := seen[e]; dup {
			t.Fatalf("event at t=%v linked twice: %s and %s", e.At, was, where)
		}
		if !e.queued {
			t.Fatalf("event at t=%v in %s is not marked queued", e.At, where)
		}
		seen[e] = where
	}
	// chain walks one chain from its head, checking every back link.
	chain := func(head *Event, where string, each func(e *Event)) {
		var prev *Event
		for e := head; e != nil; prev, e = e, e.next {
			link(e, where)
			if e.prev != prev {
				t.Fatalf("%s: event at t=%v has prev=%p, its predecessor is %p", where, e.At, e.prev, prev)
			}
			each(e)
		}
	}
	if k.first >= len(k.bottom) && k.first != 0 {
		t.Fatalf("bottom is empty with first at %d, not rewound to 0", k.first)
	}
	for i, ent := range k.bottom[:cap(k.bottom)] {
		if i < k.first || i >= len(k.bottom) {
			if ent != (entry{}) {
				t.Fatalf("bottom slot %d, outside the queued [%d, %d), is not clear: %+v", i, k.first, len(k.bottom), ent)
			}
			continue
		}
		link(ent.e, "bottom")
		if ent.e.At != ent.at || ent.e.seq != ent.seq || ent.e.next != nil || ent.e.prev != nil {
			t.Fatalf("bottom[%d] key (%v, %d), event (%v, %d, next=%p, prev=%p)", i, ent.at, ent.seq, ent.e.At, ent.e.seq, ent.e.next, ent.e.prev)
		}
		if b := k.bucketOf(ent.at); b > k.cur {
			t.Fatalf("bottom[%d] is of bucket %d, past the drained mark %d", i, b, k.cur)
		}
		if i > k.first && !k.bottom[i-1].before(ent) {
			t.Fatalf("bottom[%d] does not fire after bottom[%d]", i, i-1)
		}
	}
	ring := 0
	for slot, head := range k.heads {
		chain(head, "ring", func(e *Event) {
			ring++
			b := k.bucketOf(e.At)
			if int(b&int64(len(k.heads)-1)) != slot || b <= k.cur || b >= k.horizon {
				t.Fatalf("chain %d holds t=%v of bucket %d (mark %d, horizon %d, %d heads)", slot, e.At, b, k.cur, k.horizon, len(k.heads))
			}
		})
	}
	far, farMin := 0, math.Inf(1)
	chain(k.far, "far", func(e *Event) {
		far++
		farMin = min(farMin, e.At)
		if b := k.bucketOf(e.At); b < k.horizon {
			t.Fatalf("far holds t=%v of bucket %d, inside the horizon %d", e.At, b, k.horizon)
		}
	})
	if farMin != k.farMin {
		t.Fatalf("cached far minimum %v, far chain's is %v", k.farMin, farMin)
	}
	if ring != k.ringN || far != k.farN {
		t.Fatalf("calendar counts: ring %d (ringN %d), far %d (farN %d)", ring, k.ringN, far, k.farN)
	}
	if k.Pending() != len(seen) {
		t.Fatalf("Pending() = %d, %d events are queued", k.Pending(), len(seen))
	}
	for _, e := range k.free {
		if where, queued := seen[e]; queued || e.queued || e.next != nil || e.prev != nil {
			t.Fatalf("free list holds an event that is queued (%q, flag %v) or linked (next=%p, prev=%p)", where, e.queued, e.next, e.prev)
		}
	}
	for i, ent := range k.scratch {
		if ent != (entry{}) {
			t.Fatalf("merge scratch slot %d of %d is not clear: %+v", i, len(k.scratch), ent)
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
// sequence numbers are shuffled apart: a chain re-linked by a growth is in no
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

// pushed makes one bucket's events as the calendar receives them: one per
// time of ats, sequenced in that order. chainBucket links them LIFO, as
// pushes do; reversed first, they are the chain a far rescan or a growth
// re-links, ascending in push order.
func pushed(ats []Time) []*Event {
	evs := make([]*Event, len(ats))
	for i, at := range ats {
		evs[i] = &Event{At: at, seq: uint64(i)}
	}
	return evs
}

// blocks returns the times of clumps pushed one after another: sizes[i]
// events at 1 + at[i]/1024 each.
func blocks(at, sizes []int) []Time {
	var ats []Time
	for i, n := range sizes {
		for range n {
			ats = append(ats, 1+float64(at[i])/1024)
		}
	}
	return ats
}

// surgeBucket is shaped like openloop-surge's drained buckets past 16
// entries, which average 34 entries in 2.7 runs: four same-instant clumps at
// three instants pushed in turn, which a LIFO chain holds as three
// descending runs.
var surgeBucket = blocks([]int{1, 0, 2, 1}, []int{9, 8, 9, 8})

// drainCases are the drains held to zero allocations and timed by
// BenchmarkCalendarDrain: about the mean bucket at N=64; a same-instant clump
// among shuffled positions and sequence numbers, the worst order a chain can
// hold; and surgeBucket.
var drainCases = []struct {
	name string
	evs  func(rng *Rand) []*Event
}{
	{"bucket=10", func(rng *Rand) []*Event { return drainEvents(rng, 10, 0) }},
	{"clump=600", func(rng *Rand) []*Event { return drainEvents(rng, 0, 600) }},
	{"runs=3", func(*Rand) []*Event { return pushed(surgeBucket) }},
}

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

// emptyBottom leaves bottom as the last pop out of it does: every slot clear
// and first rewound.
func emptyBottom(k *Kernel) {
	clear(k.bottom)
	k.bottom, k.first = k.bottom[:0], 0
}

// TestDrainSortMatchesReference holds drain's sort, runs turned and then
// insertion-sorted up to smallBucket entries and merged past it, to a
// reference sort on (at, seq), earliest first, and to the layout checkQueue
// audits: the entries from slot 0, and every spare slot of bottom and of the
// merge scratch clear. Shuffled buckets of 0 to 40 entries and 600-entry
// same-instant clumps among nearby times are the orders a chain has no reason
// to hold; the run-shaped ones are those it does, each linked LIFO and
// re-linked ascending: same-instant clumps pushed in turn, interleaved
// equal-time runs, a single run, all-distinct times. Merging by time alone,
// or leaving a descending run as it came, fails here. A drain into a warm
// bottom allocates nothing.
func TestDrainSortMatchesReference(t *testing.T) {
	rng := NewRand(29)
	k := NewKernel()
	check := func(what string, evs []*Event) (runs uint64) {
		t.Helper()
		emptyBottom(k)
		before := k.stats.RunsMerged
		k.drain(chainBucket(k, evs))
		want := make([]entry, len(evs))
		for i, e := range evs {
			want[i] = entry{at: e.At, seq: e.seq, e: e}
		}
		slices.SortFunc(want, func(x, y entry) int {
			return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq))
		})
		if !slices.Equal(k.bottom, want) || k.first != 0 {
			t.Fatalf("%s: drained %v from %d, want %v from 0", what, k.bottom, k.first, want)
		}
		notClear := func(e entry) bool { return e != entry{} }
		if slices.ContainsFunc(k.bottom[len(k.bottom):cap(k.bottom)], notClear) || slices.ContainsFunc(k.scratch, notClear) {
			t.Fatalf("%s: drain left bottom's spare slots or its merge scratch uncleared", what)
		}
		if k.ringN != 0 || k.heads[0] != nil {
			t.Fatalf("%s: drain left %d events counted on the ring", what, k.ringN)
		}
		return k.stats.RunsMerged - before
	}
	// both checks the events of ats linked LIFO and re-linked ascending.
	both := func(what string, ats []Time) {
		t.Helper()
		evs := pushed(ats)
		check(what+"/lifo", evs)
		slices.Reverse(evs)
		check(what+"/ascending", evs)
	}
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			check("bucket", drainEvents(rng, n, 0))
		}
	}
	for trial := 0; trial < 5; trial++ {
		check("clump", drainEvents(rng, 200, 600))
	}
	for trial := 0; trial < 200; trial++ {
		at, sizes := make([]int, 1+rng.Intn(6)), make([]int, 0, 6)
		for i := range at {
			at[i] = rng.Intn(4)
			sizes = append(sizes, 1+rng.Intn(40))
		}
		both("clumps", blocks(at, sizes))
		ats := make([]Time, 2+rng.Intn(60))
		width := 2 + rng.Intn(3)
		for i := range ats {
			ats[i] = 1 + float64(i%width)/1024
			if rng.Intn(4) == 0 {
				ats[i] = 1 + float64(rng.Intn(width))/1024
			}
		}
		both("interleaved", ats)
		ats = ats[:0]
		for i := range 1 + rng.Intn(60) {
			ats = append(ats, 1+float64(i)/1024)
			j := rng.Intn(i + 1)
			ats[i], ats[j] = ats[j], ats[i]
		}
		both("distinct", ats)
	}
	for _, n := range []int{1, 2, 17, 600} {
		if runs := check("one clump", pushed(blocks([]int{2}, []int{n}))); runs != 1 {
			t.Fatalf("a %d-event same-instant clump linked LIFO was cut into %d runs, want 1", n, runs)
		}
		ats := blocks([]int{0, 1, 2, 3}, []int{n, n, n, n})
		if runs := check("one run", pushed(ats)); runs != 1 {
			t.Fatalf("%d events in push order, linked LIFO, were cut into %d runs, want 1", len(ats), runs)
		}
	}
	if runs := check("surge", pushed(surgeBucket)); runs != 3 {
		t.Fatalf("surgeBucket was cut into %d runs, want 3", runs)
	}

	for _, c := range drainCases {
		evs := c.evs(rng)
		drain := func() {
			emptyBottom(k)
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
// Reschedule moving pending events and re-arming fired and cancelled ones,
// events scheduled by events — with many equal times, and holds what fires to
// the live schedule sorted on (time, scheduling order): each Run fires exactly
// the schedulings due, in that order. That sort is the queue's whole contract; the calendar
// is one way to meet it.
//
// The grid cases draw times from a quarter-second grid eight slots wide, so
// most collide. The fleet-mix cases draw delays from the fleet's six-decade
// histogram with exact ties across anonymous and handle events, have a fired
// event schedule a successor a tick or so ahead one time in three, and pass
// through a burst, quiet stretches that leave only far events, a dense
// stretch whose Runs cross many buckets and a flood that grows the ring
// inside a Run of a few milliseconds, under horizons that fall inside a
// bucket and are then extended; they must reach every path of the calendar,
// and Cancel and Reschedule must each unlink from bottom, a ring chain and
// far.
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
	// flood queues past 16 events per head of the ring the burst grew, so the
	// ring grows again inside a Run a few milliseconds long, far from time 0.
	flood := churnPhase{prefill: 17_000, ops: 2000, pending: 18_000, runEvery: 100, spans: []float64{0.002, 0.01}}
	mixPhases := []churnPhase{burst, sparse, dense, sparse, dense, flood}
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
				table   []sched            // every scheduling, by id
				ids     []int              // the live ones, and those that left since the last Run
				handles []int              // ids of the live handle-carrying ones
				idOf    = map[*Event]int{} // a handle's current scheduling, which its callback fires
				spent   []*Event           // fired and cancelled handles, for Reschedule to re-arm
				got     []int              // ids in the order they fired
				seq     int
				nLive   int
				target  int // the current phase's pending
				lastAt  Time
			)
			// when draws the time of a scheduling. In the fleet mix a handle
			// event, like the flow completions it stands for, is a tenth of a
			// second to ten ahead, so it is rarely the next event.
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
				idOf[e] = id
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
						if s.e.Pending() || s.e.next != nil || s.e.prev != nil {
							t.Fatalf("op %d: fired event %d is still queued or linked", op, id)
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
			// lateGrowths counts the ring growths inside a finite Run that
			// started after time 0: the growth renumbers every bucket, so a
			// Run that kept the limit's old number would stop early.
			var lateGrowths uint64
			// unlinked counts, per operation, the events Cancel and Reschedule
			// took out of bottom, a ring chain and far, as the bucket of the
			// event's time placed it before the call.
			var unlinked [2][3]int
			where := func(e *Event) int {
				switch b := k.bucketOf(e.At); {
				case b <= k.cur:
					return 0
				case b < k.horizon:
					return 1
				}
				return 2
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
						var e *Event
						e = k.At(at, func() { fire(idOf[e]) })
						touched = e
						hold(id, e)
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
						hold(add(at), e)
						if !k.Reschedule(e, at) {
							t.Fatal("Reschedule refused a fired or cancelled event")
						}
						touched = e
					case kind < 7:
						if len(handles) == 0 {
							continue
						}
						id := handles[rng.Intn(len(handles))]
						e := table[id].e
						unlinked[0][where(e)]++
						k.Cancel(e)
						if e.Pending() || e.next != nil || e.prev != nil {
							t.Fatalf("op %d: cancelled event %d is still queued or linked", op, id)
						}
						drop(id)
						spent = append(spent, e)
					case kind < 9:
						if len(handles) == 0 {
							continue
						}
						s := &table[handles[rng.Intn(len(handles))]]
						touched = s.e
						unlinked[1][where(touched)]++
						s.at = when(true)
						if !k.Reschedule(touched, s.at) {
							t.Fatal("Reschedule refused a pending event")
						}
						s.seq = seq
						seq++
					default:
						until := k.Now() + ph.spans[rng.Intn(len(ph.spans))]
						late, grown := k.Now() > 0, k.Stats().HeadGrowths
						ran(op, until, k.Run(until))
						if late {
							lateGrowths += k.Stats().HeadGrowths - grown
						}
					}
					if touched != nil && !touched.Pending() {
						t.Fatalf("op %d: a scheduled event is not pending", op)
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
			if st := k.Stats(); tc.mix && (lateGrowths == 0 || st.Jumps == 0 || st.FarRescans == 0 || st.BottomInserts == 0) {
				t.Fatalf("a calendar path was never taken — head growth inside a late Run (%d), ring-empty jump, far re-scan, bottom insert: %+v", lateGrowths, st)
			}
			if tc.mix {
				for i, op := range []string{"Cancel", "Reschedule"} {
					for j, from := range []string{"bottom", "a ring chain", "far"} {
						if unlinked[i][j] == 0 {
							t.Errorf("%s never unlinked an event from %s: %v", op, from, unlinked)
						}
					}
				}
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
	if n := k.Run(1e9); n != 2 || k.Pending() != 5 || k.farN != 5 {
		t.Fatalf("Run(1e9) fired %d, %d pending, %d on far; want 2, 5, 5", n, k.Pending(), k.farN)
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

// FuzzKernelQueue decodes queue operations from its input, two bytes each —
// At, AtAnon, Cancel, Reschedule, a re-arm of a fired or cancelled handle and
// Run, and what each takes — over eight time offsets from the clock, so clumps
// of equal times and equal-time runs dominate. A fired event schedules a successor one time in three, so
// pushes also land in a bottom that is being popped. After every step the
// queue must hold exactly the live schedulings, each under its (at, seq), and
// pass checkQueue; each Run must fire exactly those due, in (at, seq) order.
func FuzzKernelQueue(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 2, 5, 3, 3, 9, 2, 1, 5, 7})
	f.Add([]byte{1, 3, 1, 3, 1, 4, 1, 3, 0, 3, 0, 4, 5, 2, 4, 0, 4, 1, 3, 26, 5, 3, 1, 1, 5, 7})
	f.Add([]byte{0, 6, 0, 7, 1, 7, 0, 2, 5, 5, 3, 40, 3, 17, 2, 2, 4, 2, 5, 6, 5, 7})
	f.Add([]byte{0, 2, 5, 0, 0, 0, 5, 7}) // a push earlier than a drained bucket nothing has popped
	offsets := [8]Time{0, 0, 1.0 / 1024, 1.0 / 64, 1.0/64 + 1.0/1024, 0.25, 4, 1000}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		k := NewKernel()
		live := map[uint64]Time{} // seq → at of every live scheduling
		var (
			handles []*Event
			fired   []uint64 // by the current Run, in order
			seq     uint64
		)
		var fire func(s uint64)
		// add records the scheduling about to be made at at.
		add := func(at Time) uint64 {
			live[seq] = at
			seq++
			return seq - 1
		}
		fire = func(s uint64) {
			if at, ok := live[s]; !ok || at != k.Now() {
				t.Fatalf("scheduling %d fired at %v; live %v, due at %v", s, k.Now(), ok, at)
			}
			fired = append(fired, s)
			if s%3 == 0 {
				at := k.Now() + offsets[s%8]
				next := add(at)
				k.AtAnon(at, func() { fire(next) })
			}
		}
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step]%6, int(ops[step+1])
			at := k.Now() + offsets[arg%8]
			var h *Event
			if len(handles) > 0 {
				h = handles[arg%len(handles)]
			}
			switch {
			case op == 0:
				// The callback reports the event's own sequence number,
				// which Reschedule moves.
				add(at)
				var e *Event
				e = k.At(at, func() { fire(e.seq) })
				if e.seq != seq-1 {
					t.Fatalf("the kernel sequenced a scheduling %d, the reference %d", e.seq, seq-1)
				}
				handles = append(handles, e)
			case op == 1:
				s := add(at)
				k.AtAnon(at, func() { fire(s) })
			case op == 2 && h != nil:
				if h.Pending() {
					delete(live, h.seq)
				}
				k.Cancel(h)
			case op == 3 && h != nil:
				at = k.Now() + offsets[arg/8%8]
				if h.Pending() {
					delete(live, h.seq)
				}
				add(at)
				k.Reschedule(h, at)
			case op == 4 && h != nil:
				// The first handle from h on that fired or was cancelled.
				for i := range handles {
					if r := handles[(arg+i)%len(handles)]; !r.Pending() {
						add(at)
						k.Reschedule(r, at)
						break
					}
				}
			case op == 5:
				fired = fired[:0]
				k.Run(at)
				for i, s := range fired {
					sAt := live[s]
					if i > 0 {
						p := fired[i-1]
						if pAt := live[p]; sAt < pAt || sAt == pAt && s < p {
							t.Fatalf("step %d: fired (%v, %d) after (%v, %d)", step, sAt, s, pAt, p)
						}
					}
				}
				for _, s := range fired {
					delete(live, s)
				}
				for s, sAt := range live {
					if sAt <= at {
						t.Fatalf("step %d: Run(%v) left scheduling %d, due at %v, unfired", step, at, s, sAt)
					}
				}
			}
			checkQueue(t, k)
			if k.Pending() != len(live) {
				t.Fatalf("step %d: %d events queued, %d schedulings live", step, k.Pending(), len(live))
			}
			for _, ent := range queued(k) {
				if sAt, ok := live[ent.seq]; !ok || sAt != ent.at {
					t.Fatalf("step %d: queued (%v, %d), live at %v (%v)", step, ent.at, ent.seq, sAt, ok)
				}
			}
		}
	})
}

// queued returns the key of every event queued in bottom, the ring and far.
func queued(k *Kernel) []entry {
	out := slices.Clone(k.bottom[k.first:])
	for _, head := range append(slices.Clone(k.heads), k.far) {
		for e := head; e != nil; e = e.next {
			out = append(out, entry{at: e.At, seq: e.seq, e: e})
		}
	}
	return out
}
