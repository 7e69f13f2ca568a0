// Placement: the slot-capacity scheduler that decides which grid hosts an
// application's processes land on, both at admission and when the migration
// controller re-places a degraded application (see the package comment in
// fleet.go for how placement and migration divide the work).
package fleet

import (
	"fmt"
	"math"
	"slices"

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
// hosts by available bandwidth to the application's queue host — the Remos
// query the paper's findGoodSGroup performs at repair time, applied here at
// admission time. What is ranked on is the network's instantaneous estimate
// (netsim AvailBandwidth, the value a warm Remos pair reports): admission
// cannot wait out a cold collection.
type Scheduler struct {
	Grid *netsim.Grid
	// HostCapacity is the number of process slots per host.
	HostCapacity int
	// Predict, when not nil, replaces the network's estimate of the available
	// bandwidth src→dst in bits/sec. An injected predictor is opaque: nothing
	// bounds it short of calling it, so pick scans every candidate host.
	Predict func(src, dst netsim.NodeID) float64

	load []int // committed slots, indexed by NodeID

	// Derived from load, kept in step by take/drop and recomputed by audit:
	// pos is each host's index in Grid.Hosts, byLoad[l] the number of hosts
	// carrying l slots, free the unoccupied slots, and every host before
	// Grid.Hosts[firstFree] is full (the cursor moves forward lazily in pick
	// and back in drop).
	pos       []int32
	byLoad    []int
	free      int
	firstFree int
}

// NewScheduler creates a scheduler over a grid. predict may be nil, in which
// case the network's own availability estimate is used directly.
func NewScheduler(grid *netsim.Grid, hostCapacity int, predict func(src, dst netsim.NodeID) float64) *Scheduler {
	if hostCapacity < 1 {
		hostCapacity = 1
	}
	s := &Scheduler{
		Grid:         grid,
		HostCapacity: hostCapacity,
		Predict:      predict,
		load:         make([]int, grid.Net.NumNodes()),
		pos:          make([]int32, grid.Net.NumNodes()),
		byLoad:       make([]int, hostCapacity+1),
		free:         len(grid.Hosts) * hostCapacity,
	}
	for i, h := range grid.Hosts {
		s.pos[h] = int32(i)
	}
	s.byLoad[0] = len(grid.Hosts)
	return s
}

// Load returns the committed process count on a host.
func (s *Scheduler) Load(h netsim.NodeID) int { return s.load[h] }

// FreeSlots returns the number of unoccupied process slots on the grid.
func (s *Scheduler) FreeSlots() int { return s.free }

// take commits one slot on a host with room.
func (s *Scheduler) take(h netsim.NodeID) {
	s.byLoad[s.load[h]]--
	s.load[h]++
	s.byLoad[s.load[h]]++
	s.free--
}

// drop returns one committed slot on a host; a host carrying none is left
// alone, index and all.
func (s *Scheduler) drop(h netsim.NodeID) {
	if s.load[h] <= 0 {
		return
	}
	s.byLoad[s.load[h]]--
	s.load[h]--
	s.byLoad[s.load[h]]++
	s.free++
	s.firstFree = min(s.firstFree, int(s.pos[h]))
}

// audit recomputes the derived state from load and reports the first
// disagreement (Fleet.AuditSlots runs it under the chaos soak's churn).
func (s *Scheduler) audit() error {
	free, byLoad := 0, make([]int, len(s.byLoad))
	for i, h := range s.Grid.Hosts {
		l := s.load[h]
		if l < 0 || l > s.HostCapacity {
			return fmt.Errorf("fleet: host %v carries %d committed slots, outside [0,%d]", h, l, s.HostCapacity)
		}
		if i < s.firstFree && l < s.HostCapacity {
			return fmt.Errorf("fleet: placement index drift: first-free cursor %d is past host %v with %d of %d slots taken",
				s.firstFree, h, l, s.HostCapacity)
		}
		free += s.HostCapacity - l
		byLoad[l]++
	}
	if free != s.free || !slices.Equal(byLoad, s.byLoad) {
		return fmt.Errorf("fleet: placement index drift: %d free slots and %v hosts per load on file, %d and %v by count",
			s.free, s.byLoad, free, byLoad)
	}
	return nil
}

// Reserve permanently takes one slot on the least-loaded host, for fleet
// infrastructure (the shared Remos collector).
func (s *Scheduler) Reserve() (netsim.NodeID, error) {
	h, ok := s.pick(nil, nil, -1, 0, func(netsim.NodeID, float64) float64 { return 0 })
	if !ok {
		return 0, fmt.Errorf("fleet: no free slot to reserve")
	}
	s.take(h)
	return h, nil
}

// ReleaseHost returns a single committed slot on a host — the inverse of
// Reserve for slots taken one at a time (the open-loop autoscaler's
// per-replica reservations).
func (s *Scheduler) ReleaseHost(h netsim.NodeID) { s.drop(h) }

// pick returns the best host with room that allowed (nil: every host)
// admits, ranked by (load ascending, score descending, grid host order): a
// later host replaces the incumbent only on a strictly better rank, so
// placement is deterministic. A host's score is score(h, bw) plus bias(h)
// (nil: none), bw being the available bandwidth h→to, or 0 when to is
// negative; score must not decrease in bw and never exceed ceiling.
//
// The result is that of scoring every host, found without doing so. A host
// above the incumbent's load cannot win. One level with it must beat its
// score, and the end-link bound on bw (netsim EndBandwidth) run through the
// same score arithmetic is never below the true score, so a host whose
// bound does not win is skipped without walking its route. Once the
// incumbent sits at the lowest load on the grid with a score at the ceiling
// no later host can be strictly better and the scan stops; with a bias or an
// injected predictor there is no finite ceiling and it runs to the end.
func (s *Scheduler) pick(allowed func(netsim.NodeID) bool, bias func(netsim.NodeID) float64, to netsim.NodeID, ceiling float64, score func(h netsim.NodeID, bw float64) float64) (netsim.NodeID, bool) {
	hosts := s.Grid.Hosts
	for s.firstFree < len(hosts) && s.load[hosts[s.firstFree]] >= s.HostCapacity {
		s.firstFree++
	}
	minLoad := 0
	for minLoad < s.HostCapacity && s.byLoad[minLoad] == 0 {
		minLoad++
	}
	if bias != nil {
		ceiling = math.Inf(1)
	}
	total := func(h netsim.NodeID, bw float64) float64 {
		if bias != nil {
			return score(h, bw) + bias(h)
		}
		return score(h, bw)
	}
	var best netsim.NodeID
	bestLoad, bestScore, found := 0, 0.0, false
	for _, h := range hosts[s.firstFree:] {
		l := s.load[h]
		if l >= s.HostCapacity || (found && l > bestLoad) || (allowed != nil && !allowed(h)) {
			continue
		}
		// Level with the incumbent a host has to beat its score: walk the
		// route only if the bound does, then hold the walked score to the same.
		level := found && l == bestLoad
		bw, exact := s.estimate(h, to)
		sc := total(h, bw)
		if !exact && (!level || sc > bestScore) {
			sc = total(h, s.Grid.Net.AvailBandwidth(h, to))
		}
		if level && !(sc > bestScore) {
			continue
		}
		best, bestLoad, bestScore, found = h, l, sc, true
		if l == minLoad && sc >= ceiling {
			break
		}
	}
	return best, found
}

// estimate returns the bandwidth h→to a pick scores with when that costs no
// route walk — no bandwidth term (to negative: 0), or an injected predictor,
// which nothing bounds short of calling it — and otherwise an upper bound on
// it, the network's end-link bound (not exact).
func (s *Scheduler) estimate(h, to netsim.NodeID) (bw float64, exact bool) {
	switch {
	case to < 0:
		return 0, true
	case s.Predict != nil:
		return s.Predict(h, to), true
	}
	return s.Grid.Net.EndBandwidth(h, to), false
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
	if len(avoid) == 0 {
		return s.placeWhere(spec, nil, nil, func(need, free int) error {
			return fmt.Errorf("fleet: grid full: need %d slots, %d free", need, free)
		})
	}
	allowed := func(h netsim.NodeID) bool { return !avoid[s.Grid.RouterOf(h)] }
	return s.placeWhere(spec, allowed, nil, func(need, free int) error {
		return fmt.Errorf("fleet: no healthy capacity: need %d slots, %d free outside %d avoided routers",
			need, free, len(avoid))
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
	// pick scores admissible hosts only, so the index is in range.
	bias := func(h netsim.NodeID) float64 { return rank[s.Grid.RouterIndex(h)] * rankWeight }
	return s.placeWhere(spec, admissible, bias, func(need, free int) error {
		return fmt.Errorf("fleet: no ranked capacity: need %d slots, %d free in admissible regions", need, free)
	})
}

// placeWhere is the placement core shared by Place, PlaceAvoiding and
// PlaceRanked: allowed (nil = every host) filters hosts, bias (nil = none)
// is added to every pick score, and capacityErr renders the caller-specific
// pre-check failure. With a nil bias the arithmetic is identical to the
// pre-ranking scheduler, which the migration equivalence tests rely on.
func (s *Scheduler) placeWhere(spec operators.Spec, allowed func(netsim.NodeID) bool, bias func(netsim.NodeID) float64, capacityErr func(need, free int) error) (*Assignment, error) {
	need := 2
	for _, g := range spec.Groups {
		need += len(g.Servers)
	}
	need += len(spec.Clients)
	free := s.free
	if allowed != nil {
		free = 0
		for _, h := range s.Grid.Hosts {
			if allowed(h) {
				free += s.HostCapacity - s.load[h]
			}
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
	// place picks and commits the host of one process; on failure everything
	// this placement committed so far is returned.
	place := func(role, name string, to netsim.NodeID, ceiling float64, score func(netsim.NodeID, float64) float64) (netsim.NodeID, error) {
		h, ok := s.pick(allowed, bias, to, ceiling, score)
		if !ok {
			for _, c := range committed {
				s.drop(c)
			}
			return 0, fmt.Errorf("fleet: no host for %s%s", role, name)
		}
		s.take(h)
		taken[h]++
		committed = append(committed, h)
		return h, nil
	}
	// spread scores a server or client host: bandwidth first, less 1e3 on a
	// router in crowded, less 1e6 on a host this app already occupies (never
	// co-locate with our own processes if avoidable).
	spread := func(crowded map[netsim.NodeID]bool) func(netsim.NodeID, float64) float64 {
		return func(h netsim.NodeID, bw float64) float64 {
			score := bw / 1e6
			if crowded[s.Grid.RouterOf(h)] {
				score -= 1e3
			}
			if taken[h] > 0 {
				score -= 1e6
			}
			return score
		}
	}

	// Queue and manager: least-loaded hosts, avoiding double-stacking the
	// app's own infrastructure where possible.
	var err error
	if a.QueueHost, err = place("request queue", "", -1, 0, func(netsim.NodeID, float64) float64 { return 0 }); err != nil {
		return nil, err
	}
	if a.ManagerHost, err = place("manager", "", -1, 0, func(h netsim.NodeID, _ float64) float64 { return -float64(taken[h]) }); err != nil {
		return nil, err
	}

	// Server groups: spread each group's replicas across routers, avoid
	// hosts this app already occupies, and among the remainder prefer the
	// best available bandwidth to the queue host — at most what the queue
	// host's own access link lets in.
	ceiling := math.Inf(1)
	if s.Predict == nil {
		ceiling = s.Grid.Net.EndBandwidth(-1, a.QueueHost) / 1e6
	}
	serverRouters := map[netsim.NodeID]bool{}
	for _, g := range spec.Groups {
		groupRouters := map[netsim.NodeID]bool{}
		score := spread(groupRouters)
		for _, srv := range g.Servers {
			h, err := place("server ", srv, a.QueueHost, ceiling, score)
			if err != nil {
				return nil, err
			}
			a.ServerHosts[srv] = h
			groupRouters[s.Grid.RouterOf(h)] = true
			serverRouters[s.Grid.RouterOf(h)] = true
		}
	}

	// Clients: prefer routers that host none of this app's servers, so
	// client↔server traffic crosses the backbone as in the testbed.
	score := spread(serverRouters)
	for _, c := range spec.Clients {
		if a.ClientHosts[c.Name], err = place("client ", c.Name, -1, 0, score); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Release returns an assignment's slots to the pool (application
// retirement, a migration's old placement at cutover, or its staged target
// when the drain aborts).
func (s *Scheduler) Release(a *Assignment) {
	if a == nil {
		return
	}
	a.hosts(s.drop)
}
