// Fleet-level migration: the feedback loop that re-places a whole
// application when its grid region degrades beyond what intra-app repair can
// fix. The paper's repair loop adapts *within* an architecture (swap server
// groups inside the app); this is the grid-scale analogue one level up — the
// fleet watches each application's gauge reports through the sharded
// monitoring plane, decides when the app's own manager has been given a fair
// chance and failed, and live-migrates the application to a healthy region:
//
//	signals   per-app report-bus health (latency reports above bound,
//	          bandwidth reports below floor) accumulated by a fleet
//	          subscription on the app's report shard
//	decision  a sustained-unhealthy streak longer than a repair attempt
//	          (Patience × CheckPeriod > the paper's ~30 s repair time)
//	drain     pause the clients, let in-flight requests finish (bounded
//	          by drainTimeout)
//	re-place  reserve a new Assignment away from the degraded region
//	          (Scheduler.PlaceAvoiding), re-point every process, detach
//	          and re-attach the app's monitoring-plane shards and gauge
//	          lease at the new anchor, release the old slots, resume
//
// Everything runs on the shared kernel and is deterministic; with the
// policy disabled the fleet schedules no extra events and subscribes to
// nothing, so default-configuration runs are byte-identical to a build
// without this file.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"archadapt/internal/bus"
	"archadapt/internal/gauges"
	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/operators"
)

// The migration controller's fixed thresholds.
const (
	// unhealthyFrac makes a tick unhealthy when at least this fraction of the
	// latency reports received since the previous tick were above the
	// application's bound. A tick is also unhealthy when every bandwidth
	// report since the previous tick was below the application's floor — the
	// region-bandwidth-collapse signal, which keeps firing even when a wedged
	// app completes no requests at all.
	unhealthyFrac = 0.5
	// drainTimeout bounds the pre-cutover drain: if in-flight requests have
	// not completed this long after the decision, the cutover proceeds anyway
	// — a wedged region must not pin the app forever. A CheckPeriod longer
	// than it raises the bound to CheckPeriod (drainBound): the controller
	// cannot re-evaluate faster than it measures.
	drainTimeout = 30.0
	// maxMigrationsPerApp caps completed migrations per application.
	maxMigrationsPerApp = 3
	// regionFloorBps is the measured region bandwidth below which a region
	// counts as degraded for the ranked controller's proactive backbone
	// verdict.
	regionFloorBps = 100e3
)

// MigrationPolicy tunes the fleet-level migration controller. The zero value
// disables migration entirely (no subscriptions, no ticker — the default
// fleet behaves exactly as before the controller existed).
type MigrationPolicy struct {
	// Enabled turns the controller on.
	Enabled bool
	// CheckPeriod is the interval between fleet health-decision ticks
	// (default 15 s).
	CheckPeriod float64
	// Patience is the number of consecutive unhealthy decision ticks before
	// the fleet gives up on intra-app repair and migrates. The default (4)
	// with the default CheckPeriod gives one minute of sustained
	// degradation — comfortably longer than one ~30 s repair attempt, so
	// the app's own manager always gets its chance first.
	Patience int
	// Cooldown is the minimum time after a completed migration before the
	// same application may migrate again (default 300 s).
	Cooldown float64

	// Ranked enables measurement-driven targeting: the fleet maintains a
	// per-region health index (RegionHealth) from batched Remos probes and
	// fleet-wide report statistics, migrations land via
	// Scheduler.PlaceRanked in the measurably best region (falling back to
	// the avoid-set path when the index has nothing admissible), and
	// backbone degradation measured below regionFloorBps becomes a
	// proactive unhealthy verdict. Off (the default), no region probes are
	// issued and targeting is exactly the avoid-set path.
	Ranked bool
	// MaxConcurrent caps how many migrations may be draining at once
	// across the fleet (default 2) — the admission half of the
	// coordination layer. Eligible applications beyond the cap keep their
	// unhealthy streaks and are reconsidered next tick; when the cap
	// forces a choice, the fairness tie-break prefers the longest streak,
	// then the fewest completed migrations, then admission order. A cap no
	// run can reach (with Ranked off) is the uncoordinated avoid-set
	// controller the migration equivalence test compares against.
	MaxConcurrent int
}

// validate rejects nonsensical policies before defaulting fills the zero
// fields: negative knobs, NaNs and out-of-range fractions all fail fleet
// construction instead of being silently "fixed" into something the caller
// did not ask for.
func (p MigrationPolicy) validate() error {
	bad := func(field string, v float64) error {
		return fmt.Errorf("fleet: MigrationPolicy.%s = %v is invalid (zero means default)", field, v)
	}
	switch {
	case p.CheckPeriod < 0 || math.IsNaN(p.CheckPeriod):
		return bad("CheckPeriod", p.CheckPeriod)
	case p.Patience < 0:
		return fmt.Errorf("fleet: MigrationPolicy.Patience = %d is invalid (zero means default)", p.Patience)
	case p.Cooldown < 0 || math.IsNaN(p.Cooldown):
		return bad("Cooldown", p.Cooldown)
	case p.MaxConcurrent < 0:
		return fmt.Errorf("fleet: MigrationPolicy.MaxConcurrent = %d is invalid (zero means default)", p.MaxConcurrent)
	}
	return nil
}

func (p MigrationPolicy) withDefaults() MigrationPolicy {
	if p.CheckPeriod <= 0 {
		p.CheckPeriod = 15
	}
	if p.Patience < 1 {
		p.Patience = 4
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 300
	}
	if p.MaxConcurrent < 1 {
		p.MaxConcurrent = 2
	}
	return p
}

// drainBound is how long a drain may wait for in-flight requests before the
// cutover proceeds: drainTimeout, or one decision period when that is longer.
func (p MigrationPolicy) drainBound() float64 { return max(drainTimeout, p.CheckPeriod) }

// Migration records one re-placement of an application, or the attempt.
type Migration struct {
	App string
	// DecidedAt is when the controller (or a manual Migrate call) committed
	// to moving the app.
	DecidedAt float64
	// CompletedAt is when the cutover finished; -1 while draining, and
	// forever if the attempt failed (Err) or was aborted. A record is
	// terminal when Completed(), Aborted(), or Err is set.
	CompletedAt float64
	// AbortedAt is when a drain was abandoned — by retirement, by the end
	// of the run, or because the staged target's region failed mid-drain
	// (then Err carries the reason); -1 otherwise.
	AbortedAt float64
	// Drained reports whether every in-flight request completed before the
	// cutover (false: the drain bound forced it).
	Drained bool
	// FromManager/ToManager anchor the move for logs: the manager host
	// before and after.
	FromManager, ToManager netsim.NodeID
	// Ranked reports whether the target was chosen by the measured region
	// ranking (false: the staged avoid-set fallback decided).
	Ranked bool
	// SourceHealth and TargetHealth are the decision-time region-health
	// scores of the application's worst current server region and of the
	// worst region its servers were re-placed into. Meaningful only when
	// Ranked; the ranked-targeting invariant is TargetHealth ≥
	// SourceHealth.
	SourceHealth, TargetHealth float64
	// Err is the placement failure when no healthy region had capacity.
	Err error
}

// Completed reports whether the migration finished its cutover.
func (m Migration) Completed() bool { return m.CompletedAt >= 0 }

// Aborted reports whether the drain was abandoned before cutover.
func (m Migration) Aborted() bool { return m.AbortedAt >= 0 }

// appHealth is the fleet's monitoring-plane view of one application, fed by
// a fleet subscription on the app's report shard and consumed by the
// decision ticker. Counters cover the reports since the last tick.
type appHealth struct {
	latReports, latViol int
	bwReports, bwBelow  int
	streak              int

	// Observability-plane state (all zero when tracing is off):
	// lastViolSpan is the bus span of the newest violating report, the causal
	// parent of the next unhealthy verdict; streakStart, the streak's first
	// verdict, anchors the fleet's decide-phase latency; recoverSpan watches
	// a completed migration's recovery, resolved at the first healthy verdict
	// that saw reports.
	lastViolSpan obs.SpanID
	lastVerdict  obs.SpanID
	streakStart  obs.SpanID
	recoverSpan  obs.SpanID
}

// attachHealth subscribes the fleet to an application's gauge reports at the
// fleet control host. The subscription is a real bus tenant: reports ride
// the simulated network to the control host, so fleet-level monitoring pays
// the same honesty costs as everything else.
func (f *Fleet) attachHealth(a *App) {
	if a.health == nil {
		a.health = &appHealth{}
	}
	h := a.health
	h.latReports, h.latViol, h.bwReports, h.bwBelow = 0, 0, 0, 0
	maxLat, minBW := a.Spec.MaxLatency, a.Spec.MinBandwidth
	a.report.Subscribe(f.Host, bus.TopicIs(gauges.TopicReport), func(msg bus.Message) {
		switch {
		case msg.Kind == gauges.KindClient && msg.Prop == operators.PropAvgLatency:
			h.latReports++
			if msg.V1 > maxLat {
				h.latViol++
				h.lastViolSpan = msg.Span // zero (free) when tracing is off
			}
		case msg.Kind == gauges.KindClientRole && msg.Prop == operators.PropBandwidth:
			h.bwReports++
			if msg.V1 < minBW {
				h.bwBelow++
				h.lastViolSpan = msg.Span
			}
		}
	})
}

// migrationTick is one pass of the fleet feedback loop: refresh the region
// health index (when ranking is on), fold each live application's report
// counters into an unhealthy/healthy verdict, advance or reset its streak,
// and hand the applications whose streak says intra-app repair has had its
// chance and failed to the coordination layer, which bounds how many drains
// run at once.
func (f *Fleet) migrationTick(now float64) {
	p := f.Cfg.Migration
	if f.rh != nil {
		// Region statistics read the per-app counters before they reset
		// below; the batched Remos probe issued here lands before the next
		// tick.
		f.rh.tick()
	}
	cands := f.migrCands[:0]
	for _, a := range f.admitted {
		if !a.Live() || a.health == nil {
			continue
		}
		h := a.health
		if a.pending != nil {
			// Mid-drain: the region statistics above consumed this tick's
			// reports; zero the counters so they are not folded again next
			// tick, but hold no verdict — health re-attaches at cutover.
			h.latReports, h.latViol, h.bwReports, h.bwBelow = 0, 0, 0, 0
			continue
		}
		unhealthy := (h.latReports > 0 && float64(h.latViol) >= unhealthyFrac*float64(h.latReports)) ||
			(h.bwReports > 0 && h.bwBelow == h.bwReports) ||
			(f.rh != nil && f.rh.appDegraded(a))
		hadReports := h.latReports+h.bwReports > 0
		h.latReports, h.latViol, h.bwReports, h.bwBelow = 0, 0, 0, 0
		if !unhealthy {
			h.streak = 0
			if h.recoverSpan != 0 && hadReports {
				// First healthy verdict backed by fresh reports: the migrated
				// app has demonstrably recovered.
				f.tracer.EndSpan(h.recoverSpan)
				f.tracer.RecordPhase(a.Name, obs.PhaseRecover, now-f.tracer.StartOf(h.recoverSpan))
				h.recoverSpan = 0
			}
			continue
		}
		h.streak++
		if f.tracer != nil {
			h.lastVerdict = f.tracer.Instant(obs.KindVerdict, h.lastViolSpan, a.Name, "unhealthy", float64(h.streak), 0)
			if h.streak == 1 {
				h.streakStart = h.lastVerdict
				// Fleet-level detect latency: observation origin → first
				// unhealthy verdict.
				if start, ok := f.tracer.Origin(h.lastViolSpan); ok {
					f.tracer.RecordPhase(a.Name, obs.PhaseDetect, now-start)
				}
			}
		}
		if h.streak < p.Patience {
			continue
		}
		if n, last := completed(a); n >= maxMigrationsPerApp || (n > 0 && now-last < p.Cooldown) {
			continue
		}
		cands = append(cands, a)
	}
	f.migrCands = cands

	// Coordination: at most MaxConcurrent drains in flight fleet-wide.
	// Deferred candidates keep their streaks — still unhealthy next tick,
	// they compete again. When the cap forces a choice, fairness prefers
	// the longest streak (waited longest), then the fewest completed
	// migrations (least served so far), then admission order; the chosen
	// set is then processed in admission order so placement stays a pure
	// function of scheduler state.
	if room := p.MaxConcurrent - f.inFlight; len(cands) > room {
		if room < 0 {
			room = 0
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].health.streak != cands[j].health.streak {
				return cands[i].health.streak > cands[j].health.streak
			}
			ni, _ := completed(cands[i])
			nj, _ := completed(cands[j])
			return ni < nj
		})
		cands = cands[:room]
		sort.Slice(cands, func(i, j int) bool { return cands[i].admIdx < cands[j].admIdx })
	}
	for _, a := range cands {
		a.health.streak = 0
		_ = f.beginMigration(a, now)
	}
}

// migrateParent is the causal parent of a migration decision: the app's
// newest unhealthy verdict (policy path), falling back to its newest
// violating report (manual Migrate before any verdict), else a root span.
func (f *Fleet) migrateParent(a *App) obs.SpanID {
	h := a.health
	if h == nil {
		return 0
	}
	if h.lastVerdict != 0 {
		return h.lastVerdict
	}
	return h.lastViolSpan
}

// completed counts a's completed migrations and returns the newest one's
// cutover time (-1 when there is none): the cap, the cooldown and the
// fairness tie-break all read the records.
func completed(a *App) (n int, last float64) {
	last = -1
	for _, m := range a.Migrations {
		if m.Completed() {
			n++
			last = m.CompletedAt
		}
	}
	return n, last
}

// Migrate immediately re-places a live application — the operator override;
// the policy ticker drives the same path. It reserves a new assignment away
// from the application's current region, pauses the clients, drains
// in-flight requests (bounded by the policy's drainBound) and cuts over.
// The returned error reports placement failure (no healthy capacity) or a
// bad target; the drain and cutover themselves proceed asynchronously on
// the kernel.
func (f *Fleet) Migrate(name string) error {
	a := f.apps[name]
	if a == nil {
		return fmt.Errorf("fleet: no application %q", name)
	}
	if !a.Live() {
		return fmt.Errorf("fleet: application %q is retired", name)
	}
	if a.pending != nil {
		return fmt.Errorf("fleet: application %q is already migrating", name)
	}
	// The operator path is coordinated like the ticker path: a manual
	// migration may not exceed the concurrent-drain cap either.
	if p := f.Cfg.Migration; f.inFlight >= p.MaxConcurrent {
		return fmt.Errorf("fleet: %d migrations already draining (MaxConcurrent=%d)", f.inFlight, p.MaxConcurrent)
	}
	return f.beginMigration(a, f.K.Now())
}

// beginMigration places the new target, stages it as a.pending and starts
// the drain. With ranking enabled the target comes from the region
// health index via PlaceRanked — only regions measurably at least as
// healthy as the source qualify. Without it (or when the index has nothing
// admissible) the avoid set is staged as before: first every router the
// application currently touches (a completely fresh region), then only the
// routers of its server hosts (the links whose bandwidth actually
// collapsed) — the narrower retry keeps migration possible on grids
// without a whole spare region.
func (f *Fleet) beginMigration(a *App, now float64) error {
	rec := Migration{
		App: a.Name, DecidedAt: now, CompletedAt: -1, AbortedAt: -1,
		FromManager: a.Assign.ManagerHost,
	}
	var newAssign *Assignment
	if f.rh != nil {
		if rank, source, ok := f.rh.RankFor(a); ok {
			if asg, err := f.Sch.PlaceRanked(a.Opspec, rank); err == nil {
				newAssign = asg
				rec.Ranked = true
				rec.SourceHealth = source
				rec.TargetHealth = f.rh.AssignmentHealth(asg)
			}
		}
	}
	if newAssign == nil {
		avoid := map[netsim.NodeID]bool{}
		a.Assign.hosts(func(h netsim.NodeID) { avoid[f.Grid.RouterOf(h)] = true })
		asg, err := f.Sch.PlaceAvoiding(a.Opspec, avoid)
		if err != nil {
			avoid = map[netsim.NodeID]bool{}
			for _, h := range a.Assign.ServerHosts {
				avoid[f.Grid.RouterOf(h)] = true
			}
			asg, err = f.Sch.PlaceAvoiding(a.Opspec, avoid)
		}
		if err != nil {
			rec.Err = err
			a.Migrations = append(a.Migrations, rec)
			if f.tracer != nil {
				f.tracer.Instant(obs.KindMigrateDecide, f.migrateParent(a), a.Name, "failed", 0, 0)
			}
			return err
		}
		newAssign = asg
	}
	rec.ToManager = newAssign.ManagerHost
	a.Migrations = append(a.Migrations, rec)
	if f.tracer != nil {
		target := "avoid-set"
		if rec.Ranked {
			target = "ranked"
		}
		dec := f.tracer.Instant(obs.KindMigrateDecide, f.migrateParent(a), a.Name, target,
			rec.SourceHealth, rec.TargetHealth)
		f.tracer.Instant(obs.KindReserve, dec, a.Name, fmt.Sprintf("mgr@%v", rec.ToManager), 0, 0)
		a.traceDrain = f.tracer.Begin(obs.KindDrain, dec, a.Name, "drain", 0, 0)
		if h := a.health; h != nil && h.streakStart != 0 {
			// Decide latency: first unhealthy verdict → migration commit.
			f.tracer.RecordPhase(a.Name, obs.PhaseDecide, now-f.tracer.StartOf(h.streakStart))
		}
	}
	if a.ol != nil {
		// Drop autoscaled replicas and cancel class flows before the drain:
		// the cutover's Rehost must cover exactly the spec's processes, and
		// the engine rebuilds classes against the new placement afterwards.
		f.openLoopTeardown(a, true)
	}
	a.pending = newAssign
	f.inFlight++
	if f.inFlight > f.peakInFlight {
		f.peakInFlight = f.inFlight
	}
	a.Sys.PauseClients()
	f.pollDrain(a, now)
	return nil
}

// pollDrain waits for the paused application's in-flight requests to finish
// (or for the drain bound) and then cuts over. Retirement mid-drain, the end of
// the run, or a failure of the staged target's region after the decision
// aborts the migration cleanly (a region already failed when the target was
// chosen does not — that tradeoff was priced into the decision).
func (f *Fleet) pollDrain(a *App, decidedAt float64) {
	const pollPeriod = 1.0
	var poll func()
	poll = func() {
		if f.stopped || !a.Live() || a.pending == nil {
			return // aborted: Retire or Stop released the staged target
		}
		now := f.K.Now()
		if r, failed := f.targetFailedSince(a.pending, decidedAt); failed {
			// The staged target's region failed after the decision: cutting
			// over would move the app into the outage. Abort, release the
			// staged target, resume on the old placement.
			f.abortDrain(a, fmt.Errorf("fleet: target region %d failed mid-drain", r), true)
			return
		}
		drained := a.obs.Outstanding() == 0
		if !drained && now < decidedAt+f.Cfg.Migration.drainBound() {
			f.K.At(now+pollPeriod, poll)
			return
		}
		f.cutover(a, drained)
	}
	f.K.At(f.K.Now()+pollPeriod, poll)
}

// abortDrain abandons an in-progress drain: the staged target's slots are
// released, the record is stamped aborted (reason, when there is one, lands
// in Err), and with resume the clients continue on the old placement — the
// mid-drain-failure path. Retirement and Stop abort without resuming.
func (f *Fleet) abortDrain(a *App, reason error, resume bool) {
	f.Sch.Release(a.pending)
	a.pending = nil
	f.inFlight--
	rec := &a.Migrations[len(a.Migrations)-1]
	rec.AbortedAt = f.K.Now()
	rec.Err = reason
	f.tracer.EndSpan(a.traceDrain)
	a.traceDrain = 0
	if resume {
		a.Sys.ResumeClients()
		if a.health != nil {
			// A fresh verdict streak: the controller re-evaluates from
			// scratch rather than instantly re-deciding into the outage.
			a.health.streak = 0
		}
	}
}

// cutover executes the re-placement at one kernel instant: detach the
// manager from the monitoring plane, release the old shards and slots,
// re-point every process at the new hosts, re-lease a plane at the new
// anchor, redeploy, and resume the clients.
func (f *Fleet) cutover(a *App, drained bool) {
	now := f.K.Now()

	// Full detach from the old anchor: probes silenced, report subscription
	// removed, gauge lease closed (teardown handshakes drain in the
	// background from the old manager host), shards recycled. The fleet's
	// own health subscription dies with the report shard.
	f.unlease(a)

	// Swap placements and re-point the processes: the staged target's
	// slots now belong to the live assignment.
	f.Sch.Release(a.Assign)
	a.Assign, a.pending = a.pending, nil
	if err := a.Sys.Rehost(a.Assign.QueueHost, a.Assign.ServerHosts, a.Assign.ClientHosts); err != nil {
		// Invariant: Rehost fails only on a process with no host, and the
		// placement was computed from this application's spec, so it names
		// a host for every server and client.
		panic("fleet: rehost after placement: " + err.Error())
	}

	// Re-attach at the new anchor. The lease name freed synchronously in
	// Shutdown, so re-leasing under the same application name cannot fail.
	plane, err := f.lease(a)
	if err != nil {
		// Invariant: Lease fails only on a name already leased, and
		// Shutdown closed this application's lease above, which frees the
		// name before it returns.
		panic("fleet: re-lease after shutdown: " + err.Error())
	}
	a.Mgr.Reattach(a.Assign.ManagerHost, plane)
	if a.health != nil {
		f.attachHealth(a)
		a.health.streak = 0
	}
	a.Sys.ResumeClients()
	f.inFlight--

	rec := &a.Migrations[len(a.Migrations)-1]
	rec.CompletedAt = now
	rec.Drained = drained

	if f.tracer != nil {
		f.tracer.EndSpan(a.traceDrain)
		how := "timeout"
		if drained {
			how = "drained"
		}
		cut := f.tracer.Instant(obs.KindCutover, a.traceDrain, a.Name, how, 0, 0)
		f.tracer.RecordPhase(a.Name, obs.PhaseDrain, now-rec.DecidedAt)
		a.traceDrain = 0
		if h := a.health; h != nil {
			if h.recoverSpan != 0 {
				// A repeat migration superseded an unresolved recovery.
				f.tracer.EndSpan(h.recoverSpan)
			}
			h.recoverSpan = f.tracer.Begin(obs.KindRecover, cut, a.Name, "recover/migration", 0, 0)
		}
	}
}
