package netsim

// Class flows: persistent, demand-capped transfers modeling the aggregate
// traffic of an open-loop flow class (up to 10^6 users behind one flow).
//
// A class flow differs from a bulk transfer in two ways:
//
//   - It never completes. There is no size and no completion event; the
//     solver accumulates delivered bits instead of draining a remaining
//     count, so a class costs O(1) solver state no matter how many modeled
//     users it aggregates.
//   - Its max–min allocation is capped at its offered demand (bits/sec).
//     Progressive filling freezes a demand-capped flow at its demand
//     whenever the fair share reaches it, returning the residual capacity
//     to the elastic flows on the same links — the standard max–min
//     extension for rate-limited sources. Components with no demand-capped
//     flows execute the original fill arithmetic unchanged, so runs without
//     class flows stay byte-identical.
//
// Demand is adjusted in place with SetDemand as the arrival process evolves;
// each change dirties only the flow's own path, so the incremental solver
// re-fills only the affected components.

// StartClassFlow opens a persistent, demand-capped flow carrying the
// aggregate offered load of an open-loop class between two endpoints.
// demand is the offered rate in bits/sec (≥ 0, a negative or NaN demand
// counts as zero; a zero-demand class stays registered but idle). Same-host
// classes bypass the solver entirely: local IPC is modeled as infinitely
// fast, so they deliver at exactly their offered demand.
func (n *Network) StartClassFlow(src, dst NodeID, demand float64, tag string) *Flow {
	if !(demand > 0) { // negative, zero or NaN
		demand = 0
	}
	f := &Flow{
		id:     n.nextFlow,
		Src:    src,
		Dst:    dst,
		Tag:    tag,
		path:   n.route(src, dst),
		index:  -1,
		last:   n.K.Now(),
		net:    n,
		class:  true,
		demand: demand,
	}
	n.nextFlow++
	if len(f.path) == 0 {
		f.rate = demand
		return f
	}
	f.index = len(n.flows)
	n.flows = append(n.flows, f)
	n.linkFlow(f)
	n.dirtyPath(f.path)
	n.solve()
	return f
}

// Demand returns the flow's current offered rate cap in bits/sec.
func (f *Flow) Demand() float64 { return f.demand }

// SetDemand changes a class flow's offered rate. The flow's path is dirtied
// and re-solved (or deferred to the enclosing Batch), settling delivered
// bits for every flow whose allocation shifts. Calling SetDemand on a
// cancelled flow or a non-class flow is a no-op.
func (f *Flow) SetDemand(demand float64) {
	if !f.class || f.cancelled {
		return
	}
	if !(demand > 0) { // negative, zero or NaN
		demand = 0
	}
	if demand == f.demand {
		return
	}
	f.demand = demand
	if len(f.path) == 0 {
		// Local class: rate tracks demand directly; settle first so
		// Delivered() accounting stays exact across the change.
		now := f.net.K.Now()
		if dt := now - f.last; dt > 0 {
			f.delivered += float64(f.rate * dt)
		}
		f.last = now
		f.rate = demand
		return
	}
	f.net.dirtyPath(f.path)
	f.net.solve()
}

// Delivered returns the total bits this class flow has delivered so far.
// Progress is settled lazily inside the solver, so the accessor folds in
// time elapsed at the current rate.
func (f *Flow) Delivered() float64 {
	d := f.delivered
	if f.net != nil && !f.cancelled {
		if dt := f.net.K.Now() - f.last; dt > 0 {
			d += float64(f.rate * dt)
		}
	}
	return d
}
