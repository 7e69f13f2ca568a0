package netsim

import (
	"testing"

	"archadapt/internal/sim"
)

// star builds n hosts on one router with 10 Mbps access links.
func star(hosts int) (*sim.Kernel, *Network, []NodeID, []LinkID) {
	k := sim.NewKernel()
	n := New(k)
	r := n.AddRouter("r")
	ids := make([]NodeID, hosts)
	links := make([]LinkID, hosts)
	for i := range ids {
		ids[i] = n.AddHost(string(rune('a' + i)))
		links[i] = n.Connect(ids[i], r, 10e6, 1e-3)
	}
	return k, n, ids, links
}

// A warm fire-and-forget transfer — start, solve, completion event, callback,
// post-completion solve, recycle — allocates nothing, across hosts or on one.
func TestTransferArgCycleAllocationFree(t *testing.T) {
	k, n, h, _ := star(3)
	done := 0
	count := func(arg any) { *arg.(*int)++ }
	for _, tc := range []struct {
		name     string
		src, dst NodeID
	}{
		{"cross-host", h[0], h[1]},
		{"same-host", h[2], h[2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycle := func() {
				n.StartTransferArg(tc.src, tc.dst, 20*8192, "x", count, &done)
				k.RunAll(0)
			}
			cycle() // warm: route memo, flow, hopIdx, event, closure
			before, free := done, len(n.freeFlows)
			if free == 0 {
				t.Fatal("completed transfer was not recycled")
			}
			if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
				t.Fatalf("warm transfer cycle allocates %v times", avg)
			}
			if done-before != 201 { // AllocsPerRun adds one warm-up call
				t.Fatalf("callback ran %d times, want 201", done-before)
			}
			if len(n.freeFlows) != free {
				t.Fatalf("free list grew from %d to %d over sequential transfers", free, len(n.freeFlows))
			}
		})
	}
}

// Handle-returning transfers must never be recycled, and recycling must never
// hand a live transfer's Flow, completion event or crossing indices to
// another: kept handles (some Cancelled after they completed, while recycled
// flows are in flight) interleave with fire-and-forget flows through stalls
// and resumes, and at the end every callback ran exactly once, every handle
// still reads as its own transfer, and the solver agrees with its reference.
func TestRecycledFlowsNeverAliasHandles(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		k, n, h, links := star(4)
		n.minFlowRate = 0 // a fully loaded link stalls its flows outright
		rng := sim.NewRand(seed)

		type kept struct {
			f     *Flow
			id    uint64
			bits  float64
			fired int
		}
		var handles []*kept
		var tickets []*int // one per fire-and-forget transfer
		punch := func(arg any) { *arg.(*int)++ }

		at := 0.0
		for step := 0; step < 400; step++ {
			at += rng.Float64() * 0.05
			s, d := h[rng.Intn(len(h))], h[rng.Intn(len(h))]
			bits := 1e4 * float64(1+rng.Intn(100))
			switch kind := rng.Intn(10); {
			case kind < 5:
				k.At(at, func() {
					ticket := new(int)
					tickets = append(tickets, ticket)
					n.StartTransferArg(s, d, bits, "anon", punch, ticket)
				})
			case kind < 7:
				k.At(at, func() {
					hd := &kept{id: n.nextFlow, bits: bits}
					hd.f = n.StartTransfer(s, d, bits, "kept", func(*Flow) { hd.fired++ })
					handles = append(handles, hd)
				})
			case kind < 8:
				// Cancel a handle that already completed: a no-op for
				// everyone, including whoever now owns recycled parts.
				pick := rng.Intn(1 << 16)
				k.At(at, func() {
					if len(handles) == 0 {
						return
					}
					if hd := handles[pick%len(handles)]; hd.fired == 1 {
						hd.f.Cancel()
					}
				})
			default:
				// Stall one access link, release it a little later.
				l := links[rng.Intn(len(links))]
				hold := 0.02 + rng.Float64()*0.3
				k.At(at, func() { n.SetBackgroundBoth(l, 10e6) })
				k.At(at+hold, func() { n.SetBackgroundBoth(l, 0) })
			}
			if step%40 == 0 {
				k.At(at, func() {
					if err := n.VerifyReference(1e-9); err != nil {
						t.Fatalf("seed %d t=%.3f: %v", seed, k.Now(), err)
					}
					live := map[*Flow]bool{}
					for _, f := range n.flows {
						live[f] = true
					}
					for _, f := range n.freeFlows {
						if live[f] {
							t.Fatalf("seed %d t=%.3f: a free-list flow is active", seed, k.Now())
						}
					}
				})
			}
		}
		k.RunAll(0)

		if err := n.VerifyReference(1e-9); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows never completed", seed, n.ActiveFlows())
		}
		for i, ticket := range tickets {
			if *ticket != 1 {
				t.Fatalf("seed %d: fire-and-forget transfer %d completed %d times", seed, i, *ticket)
			}
		}
		free := map[*Flow]bool{}
		for _, f := range n.freeFlows {
			if free[f] {
				t.Fatalf("seed %d: flow on the free list twice", seed)
			}
			free[f] = true
		}
		for _, hd := range handles {
			if free[hd.f] {
				t.Fatalf("seed %d: handle flow %d was recycled", seed, hd.id)
			}
			if hd.fired != 1 {
				t.Fatalf("seed %d: handle flow %d done callback ran %d times", seed, hd.id, hd.fired)
			}
			if hd.f.ID() != hd.id || hd.f.Size() != hd.bits || hd.f.Remaining() != 0 {
				t.Fatalf("seed %d: handle flow %d reads id=%d size=%v remaining=%v, want size %v, remaining 0",
					seed, hd.id, hd.f.ID(), hd.f.Size(), hd.f.Remaining(), hd.bits)
			}
		}
		if want := uint64(len(tickets) + len(handles)); n.CompletedFlows() != want {
			t.Fatalf("seed %d: %d completions counted, want %d", seed, n.CompletedFlows(), want)
		}
	}
}
