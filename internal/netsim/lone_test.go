package netsim

import (
	"math"
	"slices"
	"testing"

	"archadapt/internal/sim"
)

// The lone-flow path (regions.go) must give what the general solve gives,
// bit for bit. The differential below drives two networks built alike with
// one op stream: a takes every op as it comes, b wraps each in a Batch of its
// own, so its starts and cancels always take the general path. After every
// op both must hold the same flows at the same rates, progress and
// completion times, have fired the same completions in the same order, have
// made the same kernel calls and counted the same solves and components.

// opNet is one side of the differential.
type opNet struct {
	k       *sim.Kernel
	n       *Network
	batched bool
	handles []*Flow  // StartTransfer handles, in start order
	log     []doneAt // completions, in firing order
}

type doneAt struct {
	id uint64
	at sim.Time
}

// do runs op, inside a Batch of its own on the batched side.
func (o *opNet) do(op func()) {
	if o.batched {
		o.n.Batch(op)
		return
	}
	op()
}

// anonDone is a fire-and-forget transfer's callback argument.
type anonDone struct {
	o  *opNet
	id uint64
}

func anonDoneFn(arg any) {
	d := arg.(*anonDone)
	d.o.log = append(d.o.log, doneAt{d.id, d.o.k.Now()})
}

// opBytes hands out an op stream's bytes, zero once it is spent.
type opBytes []byte

func (b *opBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// opCoverage counts what a stream reached on the unbatched side.
type opCoverage struct {
	loneStarts, flooredLone, sharedStarts, loneFinishes, followOns int
}

// solverOps builds the two networks from data's first bytes and runs the
// rest as ops, comparing the sides after each.
func solverOps(t *testing.T, data []byte) (cov opCoverage) {
	t.Helper()
	in := opBytes(data)
	caps := []float64{1e5, 1e6, 2e6, 4e6}
	hosts := 3 + in.next()%5
	var linkCaps []float64
	var pairs [][2]int
	for i := 1; i < hosts; i++ {
		pairs = append(pairs, [2]int{i - 1, i})
		linkCaps = append(linkCaps, caps[in.next()%len(caps)])
	}
	for e := in.next() % 4; e > 0; e-- {
		i, j := in.next()%hosts, in.next()%hosts
		if i != j && !slices.Contains(pairs, [2]int{i, j}) && !slices.Contains(pairs, [2]int{j, i}) {
			pairs = append(pairs, [2]int{i, j})
			linkCaps = append(linkCaps, caps[in.next()%len(caps)])
		}
	}
	zeroFloor := in.next()%4 == 0
	var sides [2]*opNet
	for s := range sides {
		k := sim.NewKernel()
		o := &opNet{k: k, n: New(k), batched: s == 1}
		for i := 0; i < hosts; i++ {
			o.n.AddHost(string(rune('a' + i)))
		}
		for i, p := range pairs {
			o.n.Connect(NodeID(p[0]), NodeID(p[1]), linkCaps[i], 1e-3)
		}
		if zeroFloor {
			o.n.minFlowRate = 0
		}
		sides[s] = o
	}
	a := sides[0]
	// load decodes a background load: idle, saturated, just under the rate
	// floor's worth of headroom, or a fraction of the capacity.
	load := func(c float64, v int) float64 {
		switch v % 8 {
		case 0:
			return 0
		case 1:
			return c
		case 2:
			return c - 50
		default:
			return c * float64(v) / 256
		}
	}
	for step := 0; len(in) > 0 && step < 256; step++ {
		code := in.next() % 8
		switch code {
		case 0, 1, 2: // start a transfer: by handle (0, 1) or fire-and-forget (2)
			s, d := NodeID(in.next()%hosts), NodeID(in.next()%hosts)
			bits := 2e3 * float64(1+in.next()%100)
			then := in.next() % 3
			lone, active := a.n.stats.Lone, len(a.n.flows)
			for _, o := range sides {
				if code == 2 {
					id := o.n.nextFlow
					o.do(func() { o.n.StartTransferArg(s, d, bits, "anon", anonDoneFn, &anonDone{o, id}) })
					continue
				}
				o.do(func() {
					o.handles = append(o.handles, o.n.StartTransfer(s, d, bits, "h", func(f *Flow) {
						o.log = append(o.log, doneAt{f.id, o.k.Now()})
						switch then {
						case 1: // a follow-on transfer, as a reply chain would start
							o.do(func() {
								o.n.StartTransferArg(NodeID(int(f.id)%hosts), NodeID(int(f.id+1)%hosts), bits, "next", anonDoneFn, &anonDone{o, o.n.nextFlow})
							})
						case 2: // cancel an earlier handle, done or not
							h := o.handles[int(f.id)%len(o.handles)]
							o.do(h.Cancel)
						}
					}))
				})
			}
			if then > 0 && code < 2 {
				cov.followOns++
			}
			switch {
			case a.n.stats.Lone > lone:
				cov.loneStarts++
				if f := a.n.flows[len(a.n.flows)-1]; f.rate == a.n.minFlowRate {
					cov.flooredLone++
				}
			case len(a.n.flows) > active:
				cov.sharedStarts++
			}
		case 3: // cancel a handle, done or not
			pick := in.next()
			for _, o := range sides {
				if len(o.handles) > 0 {
					o.do(o.handles[pick%len(o.handles)].Cancel)
				}
			}
		case 4, 5: // background load on one direction (4) or both (5)
			li, dir, v := in.next()%len(pairs), Dir(in.next()%2), in.next()
			bg := load(linkCaps[li], v)
			for _, o := range sides {
				o.do(func() {
					if code == 4 {
						o.n.SetBackground(LinkID(li), dir, bg)
					} else {
						o.n.SetBackgroundBoth(LinkID(li), bg)
					}
				})
			}
		case 6: // let time pass
			until := a.k.Now() + 0.3*float64(in.next())/256
			for _, o := range sides {
				o.k.Run(until)
			}
		case 7: // run to the next completion
			until := math.Inf(1)
			for _, f := range a.n.flows {
				if f.completion.Pending() {
					until = min(until, f.completion.At)
				}
			}
			if math.IsInf(until, 1) {
				continue
			}
			for _, o := range sides {
				o.k.Run(until)
			}
		}
		compareOpNets(t, step, a, sides[1])
	}
	for _, o := range sides {
		o.k.RunAll(0)
	}
	compareOpNets(t, -1, a, sides[1])
	cov.loneFinishes = int(a.n.stats.Lone) - cov.loneStarts
	return cov
}

// compareOpNets fails unless the two sides agree bit for bit; step -1 is the
// final drain.
func compareOpNets(t *testing.T, step int, a, b *opNet) {
	t.Helper()
	sa, sb := a.n.Stats(), b.n.Stats()
	if sa.Solves != sb.Solves || sa.Components != sb.Components {
		t.Fatalf("op %d: solver stats %+v, general path %+v", step, sa, sb)
	}
	if ka, kb := a.k.Stats(), b.k.Stats(); ka != kb {
		t.Fatalf("op %d: kernel stats %+v, general path %+v", step, ka, kb)
	}
	if len(a.n.flows) != len(b.n.flows) || len(a.handles) != len(b.handles) {
		t.Fatalf("op %d: %d flows and %d handles, general path %d and %d",
			step, len(a.n.flows), len(a.handles), len(b.n.flows), len(b.handles))
	}
	for i, f := range a.n.flows {
		if msg := flowDiff(f, b.n.flows[i]); msg != "" {
			t.Fatalf("op %d: active flow %d: %s", step, i, msg)
		}
	}
	for i, h := range a.handles {
		if msg := flowDiff(h, b.handles[i]); msg != "" {
			t.Fatalf("op %d: handle %d: %s", step, i, msg)
		}
	}
	if !slices.Equal(a.log, b.log) {
		t.Fatalf("op %d: completions %v, general path %v", step, a.log, b.log)
	}
	if err := a.n.VerifyReference(1e-9); err != nil {
		t.Fatalf("op %d: %v", step, err)
	}
}

// flowDiff names the first state two flows disagree on, "" if none.
func flowDiff(x, y *Flow) string {
	eta := func(f *Flow) float64 {
		if f.completion.Pending() {
			return f.completion.At
		}
		return -1
	}
	bits := math.Float64bits
	switch {
	case x.id != y.id || x.index != y.index:
		return "identity differs"
	case bits(x.rate) != bits(y.rate):
		return "rate differs"
	case bits(x.remaining) != bits(y.remaining) || bits(x.last) != bits(y.last):
		return "settled progress differs"
	case bits(eta(x)) != bits(eta(y)):
		return "completion time differs"
	}
	return ""
}

// FuzzSolverOps runs the lone-path differential on fuzzed networks and op
// streams.
func FuzzSolverOps(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0, 1, 0, 0, 1, 10, 0, 7, 2, 2, 0, 5, 1, 6, 200, 7})
	f.Add([]byte{4, 3, 3, 0, 0, 2, 1, 0, 3, 20, 1, 4, 0, 0, 2, 1, 0, 1, 3, 2, 7, 7, 6, 255})
	f.Add([]byte{1, 2, 0, 0, 1, 1, 3, 2, 40, 0, 2, 0, 2, 1, 0, 1, 1, 2, 9, 2, 7, 3, 0, 7, 6, 90})
	f.Add([]byte{3, 1, 1, 1, 1, 0, 0, 0, 0, 1, 50, 0, 4, 0, 0, 2, 0, 0, 1, 3, 0, 7, 5, 1, 66, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		solverOps(t, data)
	})
}

// TestSolverOpsDifferential runs the differential over seeded random streams
// and checks that they reach every case the lone path has to match: lone
// starts on and off the rate floor, starts beside other flows, lone finishes
// and completion callbacks that start or cancel a flow.
func TestSolverOpsDifferential(t *testing.T) {
	var total opCoverage
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRand(seed)
		data := make([]byte, 32+rng.Intn(400))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		cov := solverOps(t, data)
		total.loneStarts += cov.loneStarts
		total.flooredLone += cov.flooredLone
		total.sharedStarts += cov.sharedStarts
		total.loneFinishes += cov.loneFinishes
		total.followOns += cov.followOns
	}
	t.Logf("%+v", total)
	if total.loneStarts == 0 || total.flooredLone == 0 || total.sharedStarts == 0 || total.loneFinishes == 0 || total.followOns == 0 {
		t.Fatalf("the seeds no longer reach every case: %+v", total)
	}
}

// A lone start is settled at the bottleneck's available capacity, raised to
// the rate floor, and completes at now + bits/rate to the bit; it counts one
// solve, one component and one lone start.
func TestLoneStartMatchesBottleneck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bgSrc float64 // on the source's access link, outbound
		bgDst float64 // on the destination's access link, inbound
		bits  float64
		rate  float64
	}{
		{"destination bottleneck", 4e6, 7.5e6, 1e6, 2.5e6},
		{"source bottleneck", 9e6, 3e6, 3e5, 1e6},
		{"under the floor", 10e6 - 50, 0, 2e3, MinFlowRate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, n, h, links := star(3)
			n.SetBackground(links[0], Fwd, tc.bgSrc)
			n.SetBackground(links[1], Rev, tc.bgDst)
			k.Run(0.5)
			before := n.Stats()
			f := n.StartTransfer(h[0], h[1], tc.bits, "lone", nil)
			st := n.Stats()
			if d := (SolveStats{st.Solves - before.Solves, st.Components - before.Components, st.Lone - before.Lone}); d != (SolveStats{1, 1, 1}) {
				t.Fatalf("start counted %+v, want one solve, component and lone start", d)
			}
			if f.Rate() != tc.rate {
				t.Fatalf("rate %v, want %v", f.Rate(), tc.rate)
			}
			if want := 0.5 + tc.bits/tc.rate; !f.completion.Pending() || f.completion.At != want {
				t.Fatalf("completion at %v, want %v", f.completion.At, want)
			}
			k.RunAll(0)
			if st := n.Stats(); st.Solves-before.Solves != 2 || st.Lone-before.Lone != 2 {
				t.Fatalf("start and lone finish counted %+v from %+v, want two solves and two lone steps", st, before)
			}
		})
	}
}

// A completion adds up to one solve when its callback starts or cancels a
// flow, alone on its path or beside others: the callback's solve covers the
// removal. The deltas are those of the general solve, which dirties the
// finished flow's path and solves once in the callback.
func TestCompletionCallbackCountsOneSolve(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shared     bool // c→b shares r→b with the finishing a→b, and c→r with c→d
		cancel     bool // the callback cancels c→d instead of starting d→c
		components uint64
	}{
		{"starts alone", false, false, 1}, // d→c
		{"starts beside", true, false, 2}, // c→b, d→c
		{"cancels alone", false, true, 0}, // none
		{"cancels beside", true, true, 1}, // c→b
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, n, h, _ := star(4)
			var other *Flow
			if tc.shared {
				n.StartTransfer(h[2], h[1], 1e9, "beside", nil)
			}
			if tc.cancel {
				other = n.StartTransfer(h[2], h[3], 1e9, "cancelled", nil)
			}
			f := n.StartTransfer(h[0], h[1], 1e5, "finishing", func(*Flow) {
				if tc.cancel {
					other.Cancel()
				} else {
					n.StartTransfer(h[3], h[2], 1e9, "follow-on", nil)
				}
			})
			before := n.Stats()
			k.Run(f.completion.At)
			st := n.Stats()
			if st.Solves-before.Solves != 1 || st.Components-before.Components != tc.components {
				t.Fatalf("completion counted %d solves and %d components, want 1 and %d",
					st.Solves-before.Solves, st.Components-before.Components, tc.components)
			}
		})
	}
}

// With the rate floor zeroed, a flow started alone on a saturated link stalls
// as the general solve stalls it: rate zero and no completion event, until
// the load lifts.
func TestLoneStartStallsWithZeroFloor(t *testing.T) {
	k, n, h, links := star(2)
	n.minFlowRate = 0
	n.SetBackground(links[0], Fwd, 10e6)
	before := n.Stats()
	f := n.StartTransfer(h[0], h[1], 1e6, "stalled", nil)
	st := n.Stats()
	if st.Solves-before.Solves != 1 || st.Components-before.Components != 1 || st.Lone != before.Lone {
		t.Fatalf("stalled start counted %+v from %+v, want one general solve", st, before)
	}
	if f.Rate() != 0 || f.completion.Pending() {
		t.Fatalf("stalled flow has rate %v, completion pending %v", f.Rate(), f.completion.Pending())
	}
	k.Run(2)
	n.SetBackground(links[0], Fwd, 0)
	if want := 2 + 1e6/10e6; !f.completion.Pending() || f.completion.At != want {
		t.Fatalf("resumed flow completes at %v, want %v", f.completion.At, want)
	}
}

// Under Batch, or with dirt pending, a start takes the general path even when
// the flow will be alone.
func TestLoneStartNeedsQuietNetwork(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		_, n, h, _ := star(2)
		var f *Flow
		n.Batch(func() { f = n.StartTransfer(h[0], h[1], 1e6, "batched", nil) })
		if st := n.Stats(); st != (SolveStats{Solves: 1, Components: 1}) || f.Rate() != 10e6 {
			t.Fatalf("batched start: stats %+v, rate %v", st, f.Rate())
		}
	})
	t.Run("dirt pending", func(t *testing.T) {
		// a→b finishes beside c→b, dirtying r→b; its callback starts d→a,
		// alone on its path, before that dirt is solved.
		k, n, h, _ := star(4)
		n.StartTransfer(h[2], h[1], 1e9, "beside", nil)
		var next *Flow
		f := n.StartTransfer(h[0], h[1], 1e5, "finishing", func(*Flow) {
			next = n.StartTransfer(h[3], h[0], 1e9, "follow-on", nil)
		})
		before := n.Stats()
		k.Run(f.completion.At)
		st := n.Stats()
		if st.Lone != before.Lone || st.Solves-before.Solves != 1 || st.Components-before.Components != 2 {
			t.Fatalf("start with dirt pending counted %+v from %+v, want one general solve of two components", st, before)
		}
		if next.Rate() != 10e6 {
			t.Fatalf("follow-on rate %v, want 10e6", next.Rate())
		}
	})
}
