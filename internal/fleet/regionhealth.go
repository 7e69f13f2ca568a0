// Region health: the measurement side of the paper's measure → evaluate →
// adapt loop, lifted to fleet scale. Where PR 4's migration controller only
// knew what to *leave* (avoid sets over the degraded routers), the health
// index knows where to *go*: it folds live Remos measurements and
// fleet-wide gauge-report statistics into one score per grid region, and
// the controller hands the resulting ranking to Scheduler.PlaceRanked so a
// migrating application lands in the measurably best region, not merely a
// non-avoided one.
package fleet

import (
	"math"
	"strconv"

	"archadapt/internal/netsim"
	"archadapt/internal/obs"
)

// refBps normalizes measured bandwidth: the tighter of the grid's access and
// backbone capacities (a probe can never measure more).
const refBps = min(netsim.AccessBps, netsim.BackboneBps)

// RegionHealth maintains a measured health score per grid region (router),
// refreshed every migration decision tick from two live signals:
//
//   - Remos measurements issued from the fleet control host: each region is
//     probed along two representative backbone paths — from its first host
//     to its ring neighbor's, and to the region half a chain away — batched
//     into a single remos_get_flow exchange per tick
//     (remos.Service.GetFlowBatch). A region behind crushed backbone or
//     access links measures collapsed bandwidth on both probes.
//   - Report-shard statistics: the violation fraction of the gauge reports
//     the migration controller received this tick from applications whose
//     servers sit in the region. Regions full of violating tenants score
//     down even when an instantaneous bandwidth probe looks healthy.
//
// score(r) = clamp(bw_r/refBps, 0..1) − violFrac_r ∈ [−1, 1]: a healthy
// idle region scores ≈1, a starved region hosting violating applications
// approaches −1. Scores feed Scheduler.PlaceRanked (where they dominate
// every per-host preference) and the controller's proactive
// backbone-degradation verdict (measured bandwidth below
// regionFloorBps counts as unhealthy before gauge evidence
// accumulates).
//
// The measurements are honest: probes ride the simulated network through
// the shared Remos collector, pay the cold-collection delay once per pair
// (pre-queried at construction, the paper's §5.3 mitigation), and land one
// tick late — the index read at tick t is the batch issued at tick t−1,
// the same measurement lag every other control loop in the system pays.
type RegionHealth struct {
	f *Fleet
	// srcs/dsts are the probe pairs, two per region, flattened so region
	// r's probes are indices 2r and 2r+1; out is the reusable batch-reply
	// buffer.
	srcs, dsts []netsim.NodeID
	out        []float64
	// bw[r] is the latest measured bandwidth (the better of the region's
	// two probes); −1 until the first measurement lands.
	bw []float64
	// violFrac[r] is this tick's report-violation fraction attributed to
	// region r; viol/reports are its fold scratch.
	violFrac, viol, reports []float64

	rank     []float64       // RankFor scratch
	cur      []bool          // RankFor scratch: regions the app occupies
	inFlight bool            // at most one batch outstanding
	foldFn   func([]float64) // fold, bound once rather than per batch
}

// newRegionHealth builds the index over the fleet's grid and pre-queries
// every probe pair so the first decision ticks after the Remos cold
// collections (~remos.ColdDelay) see a live index.
func newRegionHealth(f *Fleet) *RegionHealth {
	n := len(f.Grid.HostsByRouter)
	rh := &RegionHealth{
		f:        f,
		bw:       make([]float64, n),
		violFrac: make([]float64, n),
		viol:     make([]float64, n),
		reports:  make([]float64, n),
		cur:      make([]bool, n),
	}
	rh.foldFn = rh.fold
	// reps[r] is region r's representative host (its first host).
	reps := make([]netsim.NodeID, n)
	for r := range reps {
		reps[r] = f.Grid.HostsByRouter[r][0]
		rh.bw[r] = -1
	}
	if n >= 2 {
		for r := 0; r < n; r++ {
			next, far := (r+1)%n, (r+n/2)%n
			if far == next || far == r {
				// Small grids: keep the second probe a genuinely different
				// path where one exists (n=3); on a 2-region grid there is
				// only one other region and the probes coincide.
				far = (r + 2) % n
				if far == r {
					far = next
				}
			}
			rh.srcs = append(rh.srcs, reps[r], reps[r])
			rh.dsts = append(rh.dsts, reps[next], reps[far])
		}
		rh.out = make([]float64, len(rh.srcs))
		for i := range rh.srcs {
			f.Rm.Prequery(rh.srcs[i], rh.dsts[i])
		}
	}
	return rh
}

// tick runs at the top of every migration decision tick: it folds the
// controller's per-app report counters (not yet reset) into per-region
// violation fractions, then issues the next batched Remos probe, whose
// reply refreshes the bandwidth component for the following tick.
func (rh *RegionHealth) tick() {
	for r := range rh.viol {
		rh.viol[r], rh.reports[r] = 0, 0
	}
	for _, a := range rh.f.admitted {
		if !a.Live() || a.health == nil {
			continue
		}
		h := a.health
		rep := float64(h.latReports + h.bwReports)
		if rep == 0 {
			continue
		}
		v := float64(h.latViol + h.bwBelow)
		for i := range rh.cur {
			rh.cur[i] = false
		}
		for _, host := range a.Assign.ServerHosts {
			r := rh.f.Grid.RouterIndex(host)
			if r >= 0 && !rh.cur[r] {
				rh.cur[r] = true
				rh.viol[r] += v
				rh.reports[r] += rep
			}
		}
	}
	for r := range rh.violFrac {
		if rh.reports[r] > 0 {
			rh.violFrac[r] = rh.viol[r] / rh.reports[r]
		} else {
			rh.violFrac[r] = 0
		}
	}
	if rh.f.tracer != nil {
		// One region.health counter sample per measured region per tick, in
		// region order (deterministic), rendered as counter tracks by the
		// Chrome exporter: V1 = score, V2 = measured bandwidth.
		for r := range rh.bw {
			if rh.bw[r] < 0 {
				continue
			}
			s, _ := rh.Score(r)
			rh.f.tracer.Instant(obs.KindRegionHealth, 0, "", "region"+strconv.Itoa(r), s, rh.bw[r])
		}
	}
	if !rh.inFlight && len(rh.srcs) > 0 {
		rh.inFlight = true
		rh.f.Rm.GetFlowBatch(rh.f.Host, rh.srcs, rh.dsts, rh.out, rh.foldFn)
	}
}

// fold lands a batch reply: each region keeps the better of its two probes.
// NaN probes (cold pairs) leave the previous measurement in place.
func (rh *RegionHealth) fold(bws []float64) {
	rh.inFlight = false
	for r := range rh.bw {
		best := math.NaN()
		for p := 2 * r; p < 2*r+2 && p < len(bws); p++ {
			if v := bws[p]; !math.IsNaN(v) && (math.IsNaN(best) || v > best) {
				best = v
			}
		}
		if !math.IsNaN(best) {
			rh.bw[r] = best
		}
	}
}

// Score returns region r's current health score and whether the region has
// been measured yet. Unmeasured regions are never ranked — "measurably
// best" requires a measurement.
func (rh *RegionHealth) Score(r int) (float64, bool) {
	if r < 0 || r >= len(rh.bw) || rh.bw[r] < 0 {
		return 0, false
	}
	n := rh.bw[r] / refBps
	if n > 1 {
		n = 1
	}
	return n - rh.violFrac[r], true
}

// degraded reports whether region r measures below regionFloorBps.
func (rh *RegionHealth) degraded(r int) bool {
	return rh.bw[r] >= 0 && rh.bw[r] < regionFloorBps
}

// appDegraded is the proactive backbone-degradation verdict: every measured
// region hosting one of the application's servers is below the floor. It
// fires on correlated backbone contention ticks before gauge reports have
// accumulated enough evidence, turning CrushBackbone into a first-class
// migration trigger rather than something only visible through wedged
// latency reports.
func (rh *RegionHealth) appDegraded(a *App) bool {
	measured := false
	for _, h := range a.Assign.ServerHosts {
		r := rh.f.Grid.RouterIndex(h)
		if r < 0 || rh.bw[r] < 0 {
			continue
		}
		if !rh.degraded(r) {
			return false
		}
		measured = true
	}
	return measured
}

// RankFor builds the placement rank for migrating a: every region that is
// measurably at least as healthy as the application's current worst server
// region, excluding the regions the application already occupies. ok=false
// when nothing qualifies (index not yet warm, or no admissible region) —
// the controller then falls back to the staged avoid-set path. The returned
// rank aliases internal scratch and is only valid until the next call.
func (rh *RegionHealth) RankFor(a *App) (rank RegionRank, source float64, ok bool) {
	for i := range rh.cur {
		rh.cur[i] = false
	}
	a.Assign.hosts(func(h netsim.NodeID) {
		if r := rh.f.Grid.RouterIndex(h); r >= 0 {
			rh.cur[r] = true
		}
	})
	source, measured := math.Inf(1), false
	for _, h := range a.Assign.ServerHosts {
		if s, ok := rh.Score(rh.f.Grid.RouterIndex(h)); ok {
			measured = true
			if s < source {
				source = s
			}
		}
	}
	if !measured {
		return nil, 0, false
	}
	out := rh.rank[:0]
	any := false
	for r := range rh.bw {
		s, ok := rh.Score(r)
		if !ok || rh.cur[r] || s < source {
			out = append(out, math.Inf(-1))
			continue
		}
		out = append(out, s)
		any = true
	}
	rh.rank = out
	if !any {
		return nil, source, false
	}
	return out, source, true
}

// AssignmentHealth scores a placed assignment as the minimum health of the
// regions its servers landed in — the weakest-link view the ranked-
// targeting property (target never measurably worse than source) is stated
// over.
func (rh *RegionHealth) AssignmentHealth(a *Assignment) float64 {
	min := math.Inf(1)
	for _, h := range a.ServerHosts {
		if s, ok := rh.Score(rh.f.Grid.RouterIndex(h)); ok && s < min {
			min = s
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}
