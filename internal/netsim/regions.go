package netsim

import (
	"slices"

	"archadapt/internal/sim"
)

// Incremental, region-partitioned max–min reflow.
//
// The original solver recomputed every flow's rate on every flow start,
// finish, cancellation and background change — O(flows × links) work plus a
// cancel+reallocate of every completion event, per event. Once a fleet of
// applications shares one grid this is the hottest path in the repository.
//
// The solver below keeps the same progressive-filling algorithm but runs it
// only where an event can matter:
//
//   - Every (link, direction) is a resource carrying the list of elastic
//     flows that cross it. Events mark resources dirty: a changed background
//     load marks the link's directions, an added or removed flow marks its
//     path.
//   - At solve time the dirty set is expanded to its connected component in
//     the flow/resource bipartite graph (a flow ties together all resources
//     on its path). Max–min allocations decompose over connected components,
//     so flows outside the dirtied components provably keep their rates;
//     their progress and completion events are left untouched.
//   - Inside a component, filling runs over reusable scratch fields on the
//     resources themselves — no maps and no per-solve allocation. Flows
//     settle lazily: accumulated progress is folded into `remaining` only
//     when a flow's rate actually changes, and a flow whose recomputed rate
//     is unchanged keeps its completion event as-is. Changed completions
//     move via Kernel.Reschedule instead of cancel+reallocate.
//
// # Why max–min decomposes over connected components
//
// The correctness of region-partitioned reflow rests on one invariant:
// progressive filling on the whole network assigns a flow exactly the rate
// it would get from progressive filling restricted to the flow's connected
// component of the flow/resource bipartite graph (flows are vertices on one
// side, (link,direction) resources on the other; a flow is adjacent to every
// resource on its path).
//
// The argument: progressive filling raises all unfrozen flows' rates in
// lockstep until some resource saturates, freezes that resource's flows at
// their fair share, and repeats. Whether a resource saturates — and at what
// fill level — depends only on its capacity, its background load, and the
// number of its crossing flows still unfrozen. Every one of those flows is,
// by definition, in the same component as the resource. So the sequence of
// (fill level, saturating resource) events inside one component is entirely
// determined by that component: flows elsewhere can neither saturate its
// resources nor be frozen by them. Filling the components one at a time —
// or only the dirty ones — therefore produces the same fixed point as
// filling everything at once.
//
// Two bookkeeping invariants make the incremental version of this safe:
//
//   - Dirty expansion reaches the whole affected component. An event dirties
//     the resources it directly touches; the solver then walks flow→resource
//     adjacency until closure (the `seen` epoch). Anything outside the
//     closure shares no resource, transitively, with anything dirtied — by
//     the argument above its rates are already at the global fixed point and
//     must not be recomputed (their completion events stay put).
//   - Deterministic arithmetic. A component's flows are sorted into global
//     (index) order before filling: the freeze loops subtract each frozen
//     flow's share from its links in flow order, and settlement re-sequences
//     completion events in flow order, so a component's rates and its
//     events' tie-breaking depend on its flows and loads, not on the dirt
//     it was reached from. Resources are not sorted: the fill reads them
//     only to take the minimum fair share, and a minimum over finite,
//     non-negative shares is the same value whatever order it is taken in
//     (TestFillIgnoresResourceOrder).
//
// The rates equal a whole-network fill's to rounding, not always to the
// bit: a global fill runs one sequence of rounds over every component at
// once, and a component's arithmetic there can round one ulp away from the
// same component filled alone (the fuzzed-capacity-squeeze catalog entry
// shows it at 98 of its 61 901 events). ReferenceRates retains that global
// fill as the solver's one oracle: VerifyReference compares against it at a
// relative tolerance, and the netsim tests hold the fleet runs to it at
// every event.
//
// Because components are independent by the argument above, the solver fills
// each dirty component separately, in discovery order; settlement and
// completion rescheduling then run over all region flows in global index
// order.
//
// # The lone-flow path
//
// Most reply flows run alone: no other flow, elastic or class, crosses any
// resource of their path. Such a flow is a component of its own, and the
// general solve would collect it, fill it and settle it. startAlone does the
// same arithmetic without the collection. With one flow on each resource the
// fill's first round takes the minimum of avail/1 = avail over the path,
// raises it to the rate floor, and freezes the flow there, which ends the
// fill. startAlone takes that minimum in path order with the same comparison
// (one value in any order, as above) and raises it to the same floor. It then
// settles the flow through settle, the same code the general settlement
// runs. So the rate, the completion time and the kernel calls are those of
// the general path, bit for bit. The path applies only when the network is
// not batching and no dirt is pending: dirt could join the new flow's
// component to others, and a batch settles later. Where the share is zero (a
// zeroed floor on a saturated link) the general path runs: there the flow
// stalls with no completion event.
//
// The lone finish is the other half. A removed flow that was alone on every
// resource of its path leaves only empty resources behind. Dirtying them
// would add no component and no settlement (a flow linked there later
// dirties them itself, or starts alone), so removeFlow, outside a Batch,
// dirties nothing and sets owedSolve. The next solve counts the one solve
// that the dirty-but-empty solve would have counted, or a solveDirty or lone
// start absorbs it, as the general solve would have absorbed that dirt. So a
// completion whose callback starts or cancels a flow still adds up to one
// solve. SolveStats.Solves and Components read as they would without the
// path, and SolveStats.Lone counts the starts and finishes that took it.
// TestSolverOpsDifferential and FuzzSolverOps hold it to a Batch-wrapped
// twin network, which always takes the general path.

// resource is the per-(link, direction) solver state. flows is maintained
// incrementally as transfers start and finish; avail/count are scratch for
// progressive filling, valid only during a solve.
type resource struct {
	flows []flowRef
	dirty bool
	seen  uint64 // region-visit epoch
	avail float64
	count int32
	from  int32 // relay index of the node this direction leaves (see indexRelays)
}

// flowRef locates a flow inside a resource's crossing list together with the
// index of this resource in the flow's path, so removal can fix the moved
// entry's back-pointer in O(1).
type flowRef struct {
	f   *Flow
	hop int32
}

// markDirty queues a resource for the next solve.
func (n *Network) markDirty(ri int32) {
	r := &n.res[ri]
	if !r.dirty {
		r.dirty = true
		n.dirtyRes = append(n.dirtyRes, ri)
	}
}

// dirtyPath queues every resource on path for the next solve.
func (n *Network) dirtyPath(path []int32) {
	for _, ri := range path {
		n.markDirty(ri)
	}
}

// linkFlow inserts f into the crossing list of every resource on its path.
// It dirties nothing: a start that is not alone dirties the path itself.
func (n *Network) linkFlow(f *Flow) {
	if cap(f.hopIdx) < len(f.path) {
		f.hopIdx = make([]int32, len(f.path))
	}
	f.hopIdx = f.hopIdx[:len(f.path)]
	for i, ri := range f.path {
		r := &n.res[ri]
		f.hopIdx[i] = int32(len(r.flows))
		r.flows = append(r.flows, flowRef{f: f, hop: int32(i)})
	}
}

// startAlone is the lone-flow start: a just-linked elastic flow that no other
// flow crosses on any resource of its path, with no solve pending, is its
// own component, and filling it gives what fillComponent gives a one-flow
// component (see the header). It sets the rate and arms the completion,
// counting the solve and the component the general path would count, and
// reports true. It changes nothing and reports false where the general solve
// must run: under Batch, with dirt pending, beside another flow, or where the
// share is zero (a zeroed floor on a saturated link) and the flow stalls.
func (n *Network) startAlone(f *Flow) bool {
	if n.batching > 0 || len(n.dirtyRes) > 0 {
		return false
	}
	share := -1.0
	for _, ri := range f.path {
		if len(n.res[ri].flows) != 1 {
			return false
		}
		// avail/1 and a minimum taken in path order: fillComponent's
		// arithmetic for one flow, bit for bit.
		if a := n.links[ri>>1].availCap(Dir(ri & 1)); share < 0 || a < share {
			share = a
		}
	}
	if share < n.minFlowRate {
		share = n.minFlowRate
	}
	if !(share > 0) {
		return false
	}
	n.owedSolve = false // this solve covers a lone removal's
	n.stats.Solves++
	n.stats.Components++
	n.stats.Lone++
	f.prevRate, f.rate = f.rate, share
	n.settle(f, n.K.Now())
	return true
}

// removeFlow unlinks f from the active set: swap-remove from n.flows via the
// stored index (previously an O(flows) linear scan on every completion) and
// swap-remove from each crossing list, marking the path dirty. A flow that
// was alone on every resource of its path leaves no component behind, so,
// outside a Batch, its removal dirties nothing and only owes the next solve
// its count (the lone finish). Removing a flow that is already gone is a
// no-op.
func (n *Network) removeFlow(f *Flow) {
	i := f.index
	if i < 0 || i >= len(n.flows) || n.flows[i] != f {
		return
	}
	last := len(n.flows) - 1
	n.flows[i] = n.flows[last]
	n.flows[i].index = i
	n.flows[last] = nil
	n.flows = n.flows[:last]
	f.index = -1
	alone := n.batching == 0
	for hi, ri := range f.path {
		r := &n.res[ri]
		j := int(f.hopIdx[hi])
		lastj := len(r.flows) - 1
		moved := r.flows[lastj]
		r.flows[j] = moved
		moved.f.hopIdx[moved.hop] = int32(j)
		r.flows[lastj] = flowRef{}
		r.flows = r.flows[:lastj]
		alone = alone && lastj == 0
	}
	if alone {
		n.owedSolve = true
		n.stats.Lone++
		return
	}
	n.dirtyPath(f.path)
}

// Batch defers rate recomputation while fn runs, so a scenario step that
// touches several links (e.g. the fleet crushing every access link of a
// server group) triggers one reflow instead of one per link. fn should only
// mutate background loads or start/cancel transfers; rates and completion
// events are settled once when the outermost batch ends.
func (n *Network) Batch(fn func()) {
	n.batching++
	defer func() {
		n.batching--
		if n.batching == 0 {
			n.solve()
		}
	}()
	fn()
}

// solve recomputes rates for the dirtied regions (unless batched or clean).
// With no dirt but a lone finish owed, it only counts the solve: the general
// path would have solved the finished flow's path and found no flow there.
func (n *Network) solve() {
	if n.batching > 0 {
		return
	}
	if len(n.dirtyRes) > 0 {
		n.solveDirty()
	} else if n.owedSolve {
		n.owedSolve = false
		n.stats.Solves++
	}
}

// collectRegion expands the dirty set to its connected components, grouped
// in n.compFlows / n.compRes with boundaries in n.compSpans: the unit of
// filling. Only a component that carries flows is kept; a dirtied resource no
// flow crosses (e.g. the unused direction of a changed link) has nothing to
// fill, so a solve that finds no flows reads no Link at all. Each group's
// flows are sorted into global order, its resources are left in discovery
// order (see fillComponent).
func (n *Network) collectRegion() {
	n.epoch++
	n.compFlows = n.compFlows[:0]
	n.compRes = n.compRes[:0]
	n.compSpans = n.compSpans[:0]
	for _, ri := range n.dirtyRes {
		n.res[ri].dirty = false
	}
	// Walk each dirty seed to its component's closure. Seeds landing in an
	// already-collected component are skipped by the epoch check, so each
	// component is collected exactly once, contiguously.
	for _, seed := range n.dirtyRes {
		if r := &n.res[seed]; r.seen == n.epoch || len(r.flows) == 0 {
			continue
		}
		flowLo, resLo := int32(len(n.compFlows)), int32(len(n.compRes))
		n.res[seed].seen = n.epoch
		n.compRes = append(n.compRes, seed)
		n.stack = append(n.stack[:0], seed)
		for len(n.stack) > 0 {
			ri := n.stack[len(n.stack)-1]
			n.stack = n.stack[:len(n.stack)-1]
			for _, fr := range n.res[ri].flows {
				f := fr.f
				if f.seen == n.epoch {
					continue
				}
				f.seen = n.epoch
				n.compFlows = append(n.compFlows, f)
				for _, rj := range f.path {
					r := &n.res[rj]
					if r.seen != n.epoch {
						r.seen = n.epoch
						n.compRes = append(n.compRes, rj)
						n.stack = append(n.stack, rj)
					}
				}
			}
		}
		// Sort the component's flows into global order, the order the
		// fill's floating-point operations run in.
		slices.SortFunc(n.compFlows[flowLo:], byIndex)
		n.compSpans = append(n.compSpans, compSpan{
			flowLo: flowLo, flowHi: int32(len(n.compFlows)),
			resLo: resLo, resHi: int32(len(n.compRes)),
		})
	}
	n.dirtyRes = n.dirtyRes[:0]
}

func byIndex(a, b *Flow) int { return a.index - b.index }

// settleOrder returns the solve's flows in global index order, the order
// settlement reschedules completions in. One component's flows are already
// sorted; only flows gathered from several components are merged into
// n.regionFlows and sorted.
func (n *Network) settleOrder() []*Flow {
	if len(n.compSpans) <= 1 {
		return n.compFlows
	}
	n.regionFlows = append(n.regionFlows[:0], n.compFlows...)
	slices.SortFunc(n.regionFlows, byIndex)
	return n.regionFlows
}

// solveDirty collects the dirtied regions and re-runs progressive filling
// inside them, one connected component at a time. Components share no flows
// and no resources, so they fill independently. Its one caller, solve, has
// checked that there is dirt.
func (n *Network) solveDirty() {
	n.collectRegion()
	n.owedSolve = false
	n.stats.Solves++
	n.stats.Components += uint64(len(n.compSpans))
	for _, ri := range n.compRes {
		r := &n.res[ri]
		l := n.links[ri>>1]
		r.avail = l.availCap(Dir(ri & 1))
		r.count = int32(len(r.flows))
	}
	epoch := n.epoch
	flows := n.settleOrder()
	for _, f := range flows {
		f.prevRate = f.rate
		f.rate = 0
	}
	for _, sp := range n.compSpans {
		n.fillComponent(n.compFlows[sp.flowLo:sp.flowHi], n.compRes[sp.resLo:sp.resHi], epoch)
	}
	// Settle progress and move completions only for flows whose rate actually
	// changed; stable flows keep their event and their lazily-settled state.
	now := n.K.Now()
	for _, f := range flows {
		if f.rate != f.prevRate {
			n.settle(f, now)
		}
	}
}

// settle moves f from prevRate to rate at now: it folds the progress made
// at prevRate since f.last into remaining (delivered, for a class flow) and
// aims the completion at the new rate.
func (n *Network) settle(f *Flow, now sim.Time) {
	if dt := now - f.last; dt > 0 {
		if f.class {
			f.delivered += float64(f.prevRate * dt)
		} else {
			f.remaining -= float64(f.prevRate * dt)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	f.last = now
	switch {
	case f.class:
		// Class flows never complete; there is no event to move.
	case f.rate <= 0:
		// Fully stalled: a later solve that restores a rate re-arms the
		// cancelled event.
		n.K.Cancel(f.completion)
	default:
		n.arm(f, now+f.remaining/f.rate)
	}
}

// fillComponent runs progressive filling over one connected component:
// repeatedly find the most constrained resource, freeze the flows
// bottlenecked there at the equal share, remove that capacity, and continue.
// Saturated links still grant MinFlowRate so transfers always trickle (the
// paper's control run bottoms out near 1e-4 Mbps rather than zero).
//
// Demand-capped class flows get the standard max–min treatment of
// rate-limited sources: each round first freezes every unfrozen class flow
// whose demand is at or below the current fair share at exactly its demand —
// it wants no more — returning the residual capacity to the pool before the
// share is re-derived. Class flows whose demand exceeds the share behave like
// elastic flows and freeze at the bottleneck share. Freezing a flow at ≤ the
// minimum share can only raise the remaining resources' shares, so the
// batched freeze is order-independent within a round and the loop terminates
// (every round freezes at least one flow). A component without class flows
// skips that pass, keeping runs without them byte-identical to the pre-class
// solver.
//
// The fill touches only the component's own flows (rate, frozen) and
// resources (avail, count scratch) plus read-only network config. Within a
// component the arithmetic order is fixed by the sorted flow order. resIdx may
// come in any order: it feeds only the min-share scan, whose shares are finite
// and never -0, so the minimum is one value bit for bit. Capacities are
// finite, background load is clamped into [0, capacity], a demand is frozen
// only at or below a finite share, and avail is clamped at +0.
func (n *Network) fillComponent(flows []*Flow, resIdx []int32, epoch uint64) {
	hasLimited := false
	for _, f := range flows {
		if f.class {
			hasLimited = true
			break
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		minShare := -1.0
		for _, ri := range resIdx {
			r := &n.res[ri]
			if r.count == 0 {
				continue
			}
			share := r.avail / float64(r.count)
			if minShare < 0 || share < minShare {
				minShare = share
			}
		}
		if minShare < 0 {
			break // no constrained resources left
		}
		if minShare < n.minFlowRate {
			minShare = n.minFlowRate
		}
		if hasLimited {
			capped := false
			for _, f := range flows {
				if f.frozen == epoch || !f.class || f.demand > minShare {
					continue
				}
				f.rate = f.demand
				f.frozen = epoch
				unfrozen--
				capped = true
				for _, ri := range f.path {
					r := &n.res[ri]
					r.avail -= f.demand
					if r.avail < 0 {
						r.avail = 0
					}
					r.count--
				}
			}
			if capped {
				continue // re-derive the share over the freed capacity
			}
		}
		progressed := false
		for _, f := range flows {
			if f.frozen == epoch {
				continue
			}
			// Freeze f if any of its resources is at the bottleneck share.
			bottled := false
			for _, ri := range f.path {
				r := &n.res[ri]
				if r.count > 0 && r.avail/float64(r.count) <= minShare+1e-12 {
					bottled = true
					break
				}
			}
			if !bottled {
				continue
			}
			f.rate = minShare
			f.frozen = epoch
			unfrozen--
			progressed = true
			for _, ri := range f.path {
				r := &n.res[ri]
				r.avail -= minShare
				if r.avail < 0 {
					r.avail = 0
				}
				r.count--
			}
		}
		if !progressed {
			// Numerical corner: give every remaining flow the floor rate
			// (capped at demand for class flows).
			for _, f := range flows {
				if f.frozen != epoch {
					rate := n.minFlowRate
					if f.class && f.demand < rate {
						rate = f.demand
					}
					f.rate = rate
					f.frozen = epoch
					unfrozen--
				}
			}
		}
	}
}
