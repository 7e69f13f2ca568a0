package netsim

import "slices"

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

// linkFlow inserts f into the crossing list of every resource on its path
// and marks the path dirty.
func (n *Network) linkFlow(f *Flow) {
	if cap(f.hopIdx) < len(f.path) {
		f.hopIdx = make([]int32, len(f.path))
	}
	f.hopIdx = f.hopIdx[:len(f.path)]
	for i, ri := range f.path {
		r := &n.res[ri]
		f.hopIdx[i] = int32(len(r.flows))
		r.flows = append(r.flows, flowRef{f: f, hop: int32(i)})
		n.markDirty(ri)
	}
}

// removeFlow unlinks f from the active set: swap-remove from n.flows via the
// stored index (previously an O(flows) linear scan on every completion) and
// swap-remove from each crossing list, marking the path dirty. Removing a
// flow that is already gone is a no-op.
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
	for hi, ri := range f.path {
		r := &n.res[ri]
		j := int(f.hopIdx[hi])
		lastj := len(r.flows) - 1
		moved := r.flows[lastj]
		r.flows[j] = moved
		moved.f.hopIdx[moved.hop] = int32(j)
		r.flows[lastj] = flowRef{}
		r.flows = r.flows[:lastj]
		n.markDirty(ri)
	}
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
func (n *Network) solve() {
	if n.batching > 0 || len(n.dirtyRes) == 0 {
		return
	}
	n.solveDirty()
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
		if f.rate == f.prevRate {
			continue
		}
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
