package sim

import (
	"fmt"
	"sort"
	"testing"
)

// checkQueue verifies the two structural invariants of the event queue: every
// slot's event knows its position, and no entry sorts before its parent.
func checkQueue(t *testing.T, k *Kernel) {
	t.Helper()
	for i, ent := range k.queue {
		if ent.e.idx != i {
			t.Fatalf("slot %d holds an event with idx=%d", i, ent.e.idx)
		}
		if ent.e.At != ent.at {
			t.Fatalf("slot %d key at=%v, event At=%v", i, ent.at, ent.e.At)
		}
		if i > 0 && ent.before(k.queue[(i-1)/arity]) {
			t.Fatalf("slot %d sorts before its parent", i)
		}
	}
}

// TestQueueChurnMatchesSortedReference drives the queue through every way an
// event can enter, move in or leave it — At, AtAnon, AtAnonArg, Cancel,
// Reschedule, Reuse of fired structs — with many equal times, and compares
// what fires, in order, with the live schedule sorted on (time, scheduling
// order). That sort is the queue's whole contract; the typed heap is one way
// to meet it.
func TestQueueChurnMatchesSortedReference(t *testing.T) {
	// sched is the reference's record of one live scheduling.
	type sched struct {
		at  Time
		seq int // the test's own scheduling counter
		id  int
		e   *Event // nil for anonymous events
	}
	for _, tc := range []struct {
		seed         uint64
		pending, ops int
	}{
		{seed: 1, pending: 64, ops: 4000},
		{seed: 2, pending: 700, ops: 6000},
		{seed: 3, pending: 10_000, ops: 30_000},
	} {
		t.Run(fmt.Sprintf("seed=%d/pending=%d", tc.seed, tc.pending), func(t *testing.T) {
			k := NewKernel()
			rng := NewRand(tc.seed)
			var (
				live    []sched  // scheduled, not cancelled, not fired
				spent   []*Event // fired handles, for Reuse
				got     []int
				seq     int
				nextID  int
				deepest int
			)
			argFn := func(arg any) { got = append(got, arg.(int)) }
			// A quarter-second grid eight slots wide: most times collide.
			when := func() Time { return k.Now() + float64(rng.Intn(8))/4 }
			add := func(at Time, e *Event) {
				live = append(live, sched{at: at, seq: seq, id: nextID, e: e})
				seq++
				nextID++
			}
			// sortLive puts the reference schedule in firing order.
			sortLive := func() {
				sort.SliceStable(live, func(a, b int) bool {
					if live[a].at != live[b].at {
						return live[a].at < live[b].at
					}
					return live[a].seq < live[b].seq
				})
			}
			// named picks a random live handle-carrying scheduling.
			named := func() int {
				for tries := 0; tries < 8 && len(live) > 0; tries++ {
					if i := rng.Intn(len(live)); live[i].e != nil {
						return i
					}
				}
				return -1
			}
			for op := 0; op < tc.ops; op++ {
				var touched *Event
				// Schedulings outnumber cancellations, so the queue fills to
				// tc.pending; a run, which empties the near end of the time
				// grid, comes about once per tc.pending operations.
				kind := rng.Intn(9)
				if len(live) >= tc.pending && kind < 6 {
					kind = 6 + rng.Intn(3) // full: only cancel or move
				}
				if rng.Intn(tc.pending) == 0 {
					kind = 9
				}
				deepest = max(deepest, len(live))
				switch {
				case kind < 2:
					at, id := when(), nextID
					touched = k.At(at, func() { got = append(got, id) })
					add(at, touched)
				case kind < 4:
					at, id := when(), nextID
					k.AtAnon(at, func() { got = append(got, id) })
					add(at, nil)
				case kind < 5:
					at := when()
					k.AtAnonArg(at, argFn, nextID)
					add(at, nil)
				case kind < 6:
					if len(spent) == 0 {
						continue
					}
					e := spent[len(spent)-1]
					spent = spent[:len(spent)-1]
					at, id := when(), nextID
					if k.Reuse(e, at, func() { got = append(got, id) }) != e {
						t.Fatal("Reuse did not recycle a fired event")
					}
					touched = e
					add(at, e)
				case kind < 7:
					i := named()
					if i < 0 {
						continue
					}
					live[i].e.Cancel()
					live = append(live[:i], live[i+1:]...)
				case kind < 9:
					i := named()
					if i < 0 {
						continue
					}
					touched = live[i].e
					at := when()
					if !k.Reschedule(touched, at) {
						t.Fatal("Reschedule refused a pending event")
					}
					live[i].at, live[i].seq = at, seq
					seq++
				default:
					// Fire the earliest slice of the schedule and compare.
					until := k.Now() + float64(rng.Intn(3))/4
					sortLive()
					due := sort.Search(len(live), func(i int) bool { return live[i].at > until })
					got = got[:0]
					if n := k.Run(until); int(n) != due {
						t.Fatalf("op %d: Run(%v) fired %d events, reference has %d due", op, until, n, due)
					}
					for i, s := range live[:due] {
						if got[i] != s.id {
							t.Fatalf("op %d: firing %d was event %d, reference says %d (t=%v)", op, i, got[i], s.id, s.at)
						}
						if s.e != nil {
							if s.e.idx != -1 || s.e.Pending() {
								t.Fatalf("op %d: fired event %d still claims a slot (idx=%d)", op, s.id, s.e.idx)
							}
							spent = append(spent, s.e)
						}
					}
					live = append(live[:0], live[due:]...)
				}
				if touched != nil && k.queue[touched.idx].e != touched {
					t.Fatalf("op %d: event idx=%d does not point at its slot", op, touched.idx)
				}
				if len(k.queue) <= 512 || op%128 == 0 {
					checkQueue(t, k)
				}
			}
			// Drain: everything still live fires, in reference order.
			sortLive()
			got = got[:0]
			k.RunAll(0)
			if len(got) != len(live) {
				t.Fatalf("drain fired %d events, reference has %d", len(got), len(live))
			}
			for i, s := range live {
				if got[i] != s.id {
					t.Fatalf("drain: firing %d was event %d, reference says %d", i, got[i], s.id)
				}
			}
			if k.Pending() != 0 {
				t.Fatalf("%d slots left after RunAll", k.Pending())
			}
			if deepest < tc.pending {
				t.Fatalf("queue only reached %d pending, want %d", deepest, tc.pending)
			}
		})
	}
}
