// Placement: the slot-capacity scheduler that decides which grid hosts an
// application's processes land on, both at admission and when the migration
// controller re-places a degraded application (see the package comment in
// fleet.go for how placement and migration divide the work).
package fleet

import (
	"fmt"
	"math"

	"archadapt/internal/netsim"
	"archadapt/internal/operators"
)

// Assignment maps one application's processes onto grid hosts.
type Assignment struct {
	// QueueHost runs the request-queue machine; ManagerHost runs the repair
	// infrastructure (architecture manager, gauge manager).
	QueueHost   netsim.NodeID
	ManagerHost netsim.NodeID
	ServerHosts map[string]netsim.NodeID
	ClientHosts map[string]netsim.NodeID
}

// slots returns how many host slots the assignment occupies.
func (a *Assignment) slots() int { return 2 + len(a.ServerHosts) + len(a.ClientHosts) }

// hosts iterates every occupied host (with multiplicity).
func (a *Assignment) hosts(fn func(netsim.NodeID)) {
	fn(a.QueueHost)
	fn(a.ManagerHost)
	for _, h := range a.ServerHosts {
		fn(h)
	}
	for _, h := range a.ClientHosts {
		fn(h)
	}
}

// Scheduler places applications on grid hosts. Each host has a fixed number
// of process slots (HostCapacity); the scheduler balances committed load,
// spreads an application's replicas across routers, and ranks candidate
// hosts by predicted bandwidth to the application's queue host — the Remos
// query the paper's findGoodSGroup performs at repair time, applied here at
// admission time.
type Scheduler struct {
	Grid *netsim.Grid
	// HostCapacity is the number of process slots per host.
	HostCapacity int
	// Predict returns the predicted available bandwidth src→dst in bits/sec
	// (normally the Remos substitute's warm-path measurement).
	Predict func(src, dst netsim.NodeID) float64

	load []int // committed slots, indexed by NodeID
}

// NewScheduler creates a scheduler over a grid. predict may be nil, in which
// case the network's own availability estimate is used directly.
func NewScheduler(grid *netsim.Grid, hostCapacity int, predict func(src, dst netsim.NodeID) float64) *Scheduler {
	if hostCapacity < 1 {
		hostCapacity = 1
	}
	if predict == nil {
		predict = grid.Net.AvailBandwidth
	}
	return &Scheduler{
		Grid:         grid,
		HostCapacity: hostCapacity,
		Predict:      predict,
		load:         make([]int, grid.Net.NumNodes()),
	}
}

// Load returns the committed process count on a host.
func (s *Scheduler) Load(h netsim.NodeID) int { return s.load[h] }

// FreeSlots returns the number of unoccupied process slots on the grid.
func (s *Scheduler) FreeSlots() int {
	free := 0
	for _, h := range s.Grid.Hosts {
		free += s.HostCapacity - s.load[h]
	}
	return free
}

// Reserve permanently takes one slot on the least-loaded host, for fleet
// infrastructure (the shared Remos collector).
func (s *Scheduler) Reserve() (netsim.NodeID, error) {
	h, ok := s.pick(func(h netsim.NodeID) (bool, float64) { return true, 0 })
	if !ok {
		return 0, fmt.Errorf("fleet: no free slot to reserve")
	}
	s.load[h]++
	return h, nil
}

// ReleaseHost returns a single committed slot on a host — the inverse of
// Reserve for slots taken one at a time (the open-loop autoscaler's
// per-replica reservations).
func (s *Scheduler) ReleaseHost(h netsim.NodeID) {
	if s.load[h] > 0 {
		s.load[h]--
	}
}

// pick returns the admissible host with the lowest (load, -score, index)
// rank. score lets callers express preferences (bandwidth, spreading);
// admissible filters hosts out entirely. Ties break on grid host order, so
// placement is deterministic.
func (s *Scheduler) pick(rank func(h netsim.NodeID) (admissible bool, score float64)) (netsim.NodeID, bool) {
	var best netsim.NodeID
	bestLoad, bestScore, found := 0, 0.0, false
	for _, h := range s.Grid.Hosts {
		if s.load[h] >= s.HostCapacity {
			continue
		}
		ok, score := rank(h)
		if !ok {
			continue
		}
		if !found || s.load[h] < bestLoad || (s.load[h] == bestLoad && score > bestScore) {
			best, bestLoad, bestScore, found = h, s.load[h], score, true
		}
	}
	return best, found
}

// Place computes an assignment for a spec and commits it. Placement order —
// queue, manager, server groups in spec order, clients in spec order — and
// the deterministic tie-breaks make the assignment a pure function of
// scheduler state. On any failure nothing is committed.
func (s *Scheduler) Place(spec operators.Spec) (*Assignment, error) {
	return s.PlaceAvoiding(spec, nil)
}

// PlaceAvoiding places like Place but refuses every host hanging off a
// router in avoid — the migration path's "healthy region only" filter: the
// fleet passes the routers of a degraded application's current hosts so the
// re-placement lands somewhere genuinely different. A nil or empty avoid set
// is exactly Place. The capacity pre-check counts only allowed hosts, so a
// grid with free slots solely inside the avoided region fails fast.
func (s *Scheduler) PlaceAvoiding(spec operators.Spec, avoid map[netsim.NodeID]bool) (*Assignment, error) {
	allowed := func(h netsim.NodeID) bool {
		return len(avoid) == 0 || !avoid[s.Grid.RouterOf(h)]
	}
	return s.placeWhere(spec, allowed, nil, func(need, free int) error {
		if len(avoid) > 0 {
			return fmt.Errorf("fleet: no healthy capacity: need %d slots, %d free outside %d avoided routers",
				need, free, len(avoid))
		}
		return fmt.Errorf("fleet: grid full: need %d slots, %d free", need, free)
	})
}

// RegionRank is a measured health score per region (indexed by
// Grid.RouterIndex), higher = healthier. The fleet's region-health index
// produces one from Remos measurements and fleet-wide report statistics;
// PlaceRanked consumes it. A score of -Inf excludes the region outright —
// the migration controller uses that to rule out every region measurably
// worse than the one the application is fleeing. A nil rank disables ranked
// targeting (callers fall back to the avoid-set path).
type RegionRank []float64

// rankWeight scales a region's health score ([-1, 1] from the health
// index) so it dominates every per-host preference (bandwidth ~10, router
// spread 1e3, self-colocation 1e6): ranked placement commits to the
// measurably best region first and only then optimizes within it.
const rankWeight = 1e9

// PlaceRanked places like Place but steers every process toward the
// highest-ranked regions: a host's score is dominated by its region's rank,
// with the usual bandwidth/spread/colocation preferences breaking ties
// inside equally-ranked regions. Hosts in regions ranked -Inf (or beyond
// the rank's length) are excluded entirely, and the capacity pre-check
// counts only admissible hosts. An empty rank is exactly Place.
func (s *Scheduler) PlaceRanked(spec operators.Spec, rank RegionRank) (*Assignment, error) {
	if len(rank) == 0 {
		return s.Place(spec)
	}
	admissible := func(h netsim.NodeID) bool {
		r := s.Grid.RouterIndex(h)
		return r >= 0 && r < len(rank) && !math.IsInf(rank[r], -1)
	}
	bias := func(h netsim.NodeID) float64 {
		// Hosts in regions beyond the rank are inadmissible, but pick
		// evaluates the score before the admissibility filter — guard the
		// index rather than panic on a short rank.
		if r := s.Grid.RouterIndex(h); r >= 0 && r < len(rank) {
			return rank[r] * rankWeight
		}
		return 0
	}
	return s.placeWhere(spec, admissible, bias, func(need, free int) error {
		return fmt.Errorf("fleet: no ranked capacity: need %d slots, %d free in admissible regions", need, free)
	})
}

// placeWhere is the placement core shared by Place, PlaceAvoiding and
// PlaceRanked: allowed filters hosts, bias (nil = none) is added to every
// pick score, and capacityErr renders the caller-specific pre-check
// failure. With a nil bias the arithmetic is identical to the pre-ranking
// scheduler, which the migration equivalence tests rely on.
func (s *Scheduler) placeWhere(spec operators.Spec, allowed func(netsim.NodeID) bool, bias func(netsim.NodeID) float64, capacityErr func(need, free int) error) (*Assignment, error) {
	need := 2
	for _, g := range spec.Groups {
		need += len(g.Servers)
	}
	need += len(spec.Clients)
	free := 0
	for _, h := range s.Grid.Hosts {
		if allowed(h) {
			free += s.HostCapacity - s.load[h]
		}
	}
	if free < need {
		return nil, capacityErr(need, free)
	}

	a := &Assignment{
		ServerHosts: map[string]netsim.NodeID{},
		ClientHosts: map[string]netsim.NodeID{},
	}
	taken := map[netsim.NodeID]int{} // this app's own occupancy (for self-spread)
	var committed []netsim.NodeID
	take := func(h netsim.NodeID) {
		s.load[h]++
		taken[h]++
		committed = append(committed, h)
	}
	release := func() {
		for _, h := range committed {
			s.load[h]--
		}
	}

	// Queue and manager: least-loaded hosts, avoiding double-stacking the
	// app's own infrastructure where possible.
	qh, ok := s.pick(func(h netsim.NodeID) (bool, float64) {
		score := 0.0
		if bias != nil {
			score = bias(h)
		}
		return allowed(h), score
	})
	if !ok {
		return nil, fmt.Errorf("fleet: no host for request queue")
	}
	a.QueueHost = qh
	take(qh)
	mh, ok := s.pick(func(h netsim.NodeID) (bool, float64) {
		score := -float64(taken[h])
		if bias != nil {
			score += bias(h)
		}
		return allowed(h), score
	})
	if !ok {
		release()
		return nil, fmt.Errorf("fleet: no host for manager")
	}
	a.ManagerHost = mh
	take(mh)

	// Server groups: spread each group's replicas across routers, avoid
	// hosts this app already occupies, and among the remainder prefer the
	// best predicted bandwidth to the queue host.
	serverRouters := map[netsim.NodeID]bool{}
	for _, g := range spec.Groups {
		groupRouters := map[netsim.NodeID]bool{}
		for _, srv := range g.Servers {
			h, ok := s.pick(func(h netsim.NodeID) (bool, float64) {
				score := s.Predict(h, a.QueueHost) / 1e6
				if groupRouters[s.Grid.RouterOf(h)] {
					score -= 1e3 // spread replicas across routers
				}
				if taken[h] > 0 {
					score -= 1e6 // never co-locate with our own processes if avoidable
				}
				if bias != nil {
					score += bias(h)
				}
				return allowed(h), score
			})
			if !ok {
				release()
				return nil, fmt.Errorf("fleet: no host for server %s", srv)
			}
			a.ServerHosts[srv] = h
			groupRouters[s.Grid.RouterOf(h)] = true
			serverRouters[s.Grid.RouterOf(h)] = true
			take(h)
		}
	}

	// Clients: prefer routers that host none of this app's servers, so
	// client↔server traffic crosses the backbone as in the testbed.
	for _, c := range spec.Clients {
		h, ok := s.pick(func(h netsim.NodeID) (bool, float64) {
			score := 0.0
			if serverRouters[s.Grid.RouterOf(h)] {
				score -= 1e3
			}
			if taken[h] > 0 {
				score -= 1e6
			}
			if bias != nil {
				score += bias(h)
			}
			return allowed(h), score
		})
		if !ok {
			release()
			return nil, fmt.Errorf("fleet: no host for client %s", c.Name)
		}
		a.ClientHosts[c.Name] = h
		take(h)
	}
	return a, nil
}

// Reservation stages a committed assignment for a migration in flight. The
// slots were taken from the scheduler the moment the assignment was placed
// — a later placement can never hand the same last slots to a second drain;
// that commit-at-decision is what serializes concurrent migrations
// competing for the same spare capacity. The reservation then has exactly
// two exits: Commit hands the slots to the cutover, Release returns them to
// the pool (retirement mid-drain, placement abandoned). Release is
// idempotent and a no-op after Commit, so every abort path can call it
// unconditionally; Scheduler.FreeSlots round-trips exactly either way.
type Reservation struct {
	sch       *Scheduler
	assign    *Assignment
	released  bool
	committed bool
}

// Stage wraps an assignment whose slots this scheduler already committed
// (Place/PlaceAvoiding/PlaceRanked) into a staged reservation.
func (s *Scheduler) Stage(a *Assignment) *Reservation {
	return &Reservation{sch: s, assign: a}
}

// Assignment returns the staged target without transferring ownership.
func (r *Reservation) Assignment() *Assignment { return r.assign }

// Release returns the staged slots to the scheduler. Idempotent; no-op
// after Commit (the slots then belong to the live assignment).
func (r *Reservation) Release() {
	if r == nil || r.released || r.committed {
		return
	}
	r.released = true
	r.sch.Release(r.assign)
}

// Commit finalizes the reservation and hands the assignment to the caller,
// which now owns the slots (they are freed later by Scheduler.Release at
// retirement or the next migration). Committing a released reservation is
// a bug — the slots may already be someone else's.
func (r *Reservation) Commit() *Assignment {
	if r.released {
		panic("fleet: committing a released reservation")
	}
	r.committed = true
	return r.assign
}

// Release returns an assignment's slots to the pool (application
// retirement).
func (s *Scheduler) Release(a *Assignment) {
	if a == nil {
		return
	}
	a.hosts(func(h netsim.NodeID) {
		if s.load[h] > 0 {
			s.load[h]--
		}
	})
}
