package netsim

import (
	"fmt"
	"math"
)

// VerifyReference re-solves the whole network with the retained global
// oracle (ReferenceRates) and compares every active flow's incremental rate
// against it, within relative tolerance tol. It is the component-
// decomposition equivalence check the chaos soak harness spot-checks mid-run:
// if the region-partitioned incremental solver ever drifts from the global
// progressive-filling answer, the first diverging flow is reported.
func (n *Network) VerifyReference(tol float64) error {
	ref := n.ReferenceRates()
	for _, f := range n.flows {
		if len(f.path) == 0 {
			continue
		}
		want := ref[f]
		got := f.rate
		scale := math.Max(math.Abs(got), math.Abs(want))
		if math.Abs(got-want) > tol*math.Max(scale, 1) {
			return fmt.Errorf("netsim: flow %d rate %g diverges from reference %g (rel err %.3g)",
				f.id, got, want, math.Abs(got-want)/math.Max(scale, 1))
		}
	}
	return nil
}

// ReferenceRates computes every active flow's max–min fair rate with the
// original global progressive-filling algorithm — maps, fresh slices, all
// flows and links considered on every call. It mutates nothing: rates are
// returned keyed by flow. Retained purely as the oracle for the incremental
// solver's equivalence tests; production code uses solveDirty (regions.go).
func (n *Network) ReferenceRates() map[*Flow]float64 {
	type res struct {
		avail float64
		count int
	}
	// resources indexed by link*2+dir
	resources := make([]res, len(n.links)*2)
	for i, l := range n.links {
		resources[i*2+int(Fwd)] = res{avail: l.availCap(Fwd)}
		resources[i*2+int(Rev)] = res{avail: l.availCap(Rev)}
	}
	rates := make(map[*Flow]float64, len(n.flows))
	active := make([]*Flow, 0, len(n.flows))
	hasLimited := false
	for _, f := range n.flows {
		rates[f] = 0
		if len(f.path) == 0 {
			continue
		}
		active = append(active, f)
		hasLimited = hasLimited || f.class
		for _, ri := range f.path {
			resources[ri].count++
		}
	}
	frozen := make(map[*Flow]bool, len(active))
	for len(frozen) < len(active) {
		// Find the minimum fair share among resources with unfrozen flows.
		minShare := -1.0
		for _, r := range resources {
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
		// Demand pre-pass, mirroring fillComponent: class flows whose
		// demand is within the fair share freeze at exactly their demand.
		// Skipped entirely when no class flows exist so the oracle's
		// arithmetic matches the original algorithm bit-for-bit.
		if hasLimited {
			capped := false
			for _, f := range active {
				if frozen[f] || !f.class || f.demand > minShare {
					continue
				}
				rates[f] = f.demand
				frozen[f] = true
				capped = true
				for _, ri := range f.path {
					resources[ri].avail -= f.demand
					if resources[ri].avail < 0 {
						resources[ri].avail = 0
					}
					resources[ri].count--
				}
			}
			if capped {
				continue // re-derive the share over the freed capacity
			}
		}
		progressed := false
		for _, f := range active {
			if frozen[f] {
				continue
			}
			// Freeze f if any of its resources is at the bottleneck share.
			bottled := false
			for _, ri := range f.path {
				r := resources[ri]
				if r.count > 0 && r.avail/float64(r.count) <= minShare+1e-12 {
					bottled = true
					break
				}
			}
			if !bottled {
				continue
			}
			rates[f] = minShare
			frozen[f] = true
			progressed = true
			for _, ri := range f.path {
				resources[ri].avail -= minShare
				if resources[ri].avail < 0 {
					resources[ri].avail = 0
				}
				resources[ri].count--
			}
		}
		if !progressed {
			// Numerical corner: give every remaining flow the floor rate
			// (capped at demand for class flows).
			for _, f := range active {
				if !frozen[f] {
					rate := n.minFlowRate
					if f.class && f.demand < rate {
						rate = f.demand
					}
					rates[f] = rate
					frozen[f] = true
				}
			}
		}
	}
	return rates
}
