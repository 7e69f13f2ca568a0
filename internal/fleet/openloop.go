// Open-loop heavy-traffic engine: the fleet's aggregated workload plane.
//
// The closed-loop clients the paper ran cap offered load at the client
// count — each waits for its reply before sending again, so the grid can
// degrade but never truly overload. This file adds the open-loop regime:
// arrival processes (internal/arrivals) offer load as a pure function of
// time, and each application's population — up to 10^6 modeled users — is
// aggregated into a handful of flow classes, one demand-capped netsim flow
// per (client-region, server-group) pair. An M/M/m model
// (internal/queueing) converts each group's offered load into a latency
// verdict, a fluid network model adds queueing and transfer time along the
// class's real (congested) path, and the verdicts are delivered back
// through the ordinary client response pipeline — so probes, gauges and the
// per-app repair loop run unchanged, at any population size.
//
// The engine closes two new control loops of its own:
//
//   - ScalePolicy grows and shrinks server groups against offered
//     utilization, reserving and releasing scheduler slots one replica at a
//     time. Autoscaled replicas live below the architectural model (the
//     repair engine never sees them, like background capacity) and are torn
//     down before a migration re-places the app.
//   - AdmissionPolicy sheds or queues whole applications when the fleet's
//     aggregate offered load would saturate its service capacity, with a
//     balanced ledger (Offered = Admitted + Shed + Queued; Admitted =
//     Active + Retired) the chaos harness audits as an invariant.
//
// Everything here is off by default and byte-identical-off: with
// OpenLoopPolicy.Enabled false the fleet schedules no extra events, admits
// along the unchanged path, and produces summaries identical to a build
// without this file.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"archadapt/internal/app"
	"archadapt/internal/arrivals"
	"archadapt/internal/netsim"
	"archadapt/internal/operators"
	"archadapt/internal/queueing"
)

// verdictCeiling bounds synthetic latency verdicts (an hour) so summaries
// of saturated runs stay finite and printable; anything near it is far past
// every latency bound that matters.
const verdictCeiling = 3600.0

// The engine's tick and the fixed thresholds of its two controllers.
const (
	// adjustPeriod is the engine tick: demands recomputed, verdicts
	// delivered, scale decisions taken.
	adjustPeriod = 5.0
	// scaleUpAt and scaleDownAt are the autoscaler's ρ thresholds; scaling
	// up requires free grid capacity, and a full grid silently defers.
	scaleUpAt, scaleDownAt = 0.8, 0.3
	// scaleCooldown is the minimum time between scale actions on the same
	// group.
	scaleCooldown = 30.0
	// maxUtilization is the admission gate's fleet ρ ceiling.
	maxUtilization = 0.95
	// admissionRetryPeriod is the admission queue's retry interval.
	admissionRetryPeriod = 30.0
)

// Arrival process kinds for ArrivalSpec.Kind.
const (
	ArrivalPoisson = "poisson"
	ArrivalDiurnal = "diurnal"
	ArrivalTrace   = "trace"
)

// ArrivalSpec declaratively selects an application's open-loop arrival
// process — a plain struct (not an interface) so scenario literals,
// including chaos-shrunk reproducers, can spell it out. Rates are per
// modeled user, in requests/sec. The zero value is Poisson at the app's
// ClientRate, which makes the default open-loop run the load-equivalent of
// the closed-loop one.
type ArrivalSpec struct {
	// Kind is "", ArrivalPoisson, ArrivalDiurnal or ArrivalTrace.
	Kind string

	// Lambda is the Poisson rate (default: the app's ClientRate).
	Lambda float64

	// Diurnal envelope: Base (default ClientRate), Swing in [0,1] and Period
	// seconds per cycle — plus one optional flash-crowd burst multiplying
	// the rate by BurstFactor during [BurstAt, BurstAt+BurstDuration).
	Base, Swing, Period                 float64
	BurstAt, BurstDuration, BurstFactor float64

	// Trace-driven step schedule (right-continuous; zero before Times[0]).
	Times, Rates []float64
}

// process resolves the spec into an arrivals.Process, defaulting
// unspecified rates to defaultRate.
func (s ArrivalSpec) process(defaultRate float64) (arrivals.Process, error) {
	switch s.Kind {
	case "", ArrivalPoisson:
		lambda := s.Lambda
		if lambda <= 0 {
			lambda = defaultRate
		}
		return arrivals.Poisson{Lambda: lambda}, nil
	case ArrivalDiurnal:
		base := s.Base
		if base <= 0 {
			base = defaultRate
		}
		d := arrivals.Diurnal{Base: base, Swing: s.Swing, Period: s.Period}
		if s.BurstFactor > 0 && s.BurstDuration > 0 {
			d.Bursts = []arrivals.Burst{{At: s.BurstAt, Duration: s.BurstDuration, Factor: s.BurstFactor}}
		}
		return d, nil
	case ArrivalTrace:
		if len(s.Times) == 0 || len(s.Times) != len(s.Rates) {
			return nil, fmt.Errorf("fleet: ArrivalSpec trace needs equal-length non-empty Times/Rates (%d/%d)",
				len(s.Times), len(s.Rates))
		}
		return arrivals.Trace{Times: s.Times, Rates: s.Rates}, nil
	default:
		return nil, fmt.Errorf("fleet: unknown ArrivalSpec.Kind %q", s.Kind)
	}
}

// ScalePolicy tunes the open-loop replica autoscaler: per server group, the
// engine compares offered utilization ρ = λ/(m·μ) against scaleUpAt and
// scaleDownAt every adjust tick and grows or shrinks the group one
// autoscaled replica at a time, reserving/releasing scheduler slots as it
// goes.
type ScalePolicy struct {
	Enabled bool
	// MaxReplicas caps autoscaled replicas per group (default 8).
	MaxReplicas int
}

// AdmissionPolicy tunes the fleet admission controller: when the aggregate
// open-loop offered load (including the candidate) would push fleet
// utilization past maxUtilization, the candidate is shed — or queued, and
// retried every admissionRetryPeriod as capacity frees up.
type AdmissionPolicy struct {
	Enabled bool
	// Queue holds rejected candidates for retry instead of shedding them.
	Queue bool
}

// OpenLoopPolicy enables and tunes the open-loop engine. The zero value
// disables it entirely: no tickers, no per-app state, byte-identical
// summaries to a fleet without the engine.
type OpenLoopPolicy struct {
	Enabled bool
	// Users is the modeled population per application (default: one user
	// per client, making the open-loop run the load-equivalent of the
	// closed-loop one).
	Users     int
	Scale     ScalePolicy
	Admission AdmissionPolicy
}

func (p OpenLoopPolicy) validate() error {
	switch {
	case p.Users < 0:
		return fmt.Errorf("fleet: OpenLoopPolicy.Users = %d is invalid (zero means one per client)", p.Users)
	case p.Scale.MaxReplicas < 0:
		return fmt.Errorf("fleet: OpenLoopPolicy.Scale.MaxReplicas = %d is invalid (zero means default)", p.Scale.MaxReplicas)
	}
	return nil
}

func (p OpenLoopPolicy) withDefaults() OpenLoopPolicy {
	if p.Scale.MaxReplicas < 1 {
		p.Scale.MaxReplicas = 8
	}
	return p
}

// AdmissionLedger is the admission controller's balanced books. Two
// invariants hold at every instant (the chaos harness audits both):
//
//	Offered  = Admitted + Shed + Queued
//	Admitted = Active + Retired
type AdmissionLedger struct {
	// Offered counts externally offered applications (each spec once,
	// however many retries it takes); Admitted the ones that made it in;
	// Shed the ones rejected for saturation or placement failure; Queued
	// the ones currently waiting for capacity.
	Offered, Admitted, Shed, Queued int
	// Active and Retired split Admitted by lifecycle.
	Active, Retired int
}

// errAdmissionQueued marks an Admit that parked the spec on the retry
// queue rather than rejecting it outright.
var errAdmissionQueued = errors.New("fleet: admission queued: grid near saturation")

// openLoop is the fleet-level engine state (Fleet.ol; nil when disabled).
type openLoop struct {
	p                   OpenLoopPolicy
	ledger              AdmissionLedger
	queued              []AppSpec
	stopTick, stopRetry func()
}

// scaledReplica is one autoscaled server and the slot it holds.
type scaledReplica struct {
	name string
	host netsim.NodeID
}

// openApp is one application's open-loop state (App.ol; nil when disabled).
type openApp struct {
	proc  arrivals.Process
	users float64
	gated bool // admitted through the admission gate (ledger accounting)

	classes  app.FlowClasses
	lastTick float64

	// Per-group state, indexed by position in Sys.Groups() (groups are
	// never removed): backlog is the server fluid queue in requests;
	// lastScale the cooldown anchor (-Inf before the first action); scaled
	// the live autoscaled replicas.
	backlog   []float64
	lastScale []float64
	scaled    [][]scaledReplica
	seq       int
	ups       int
	downs     int

	// Tick scratch, reused across ticks: per-class offered load, per-class
	// completion counts, per-group aggregates.
	lam    []float64
	counts []uint64
	glam   []float64
	gout   []float64
	gwait  []float64
}

// growGroups extends the per-group state to n groups.
func (ol *openApp) growGroups(n int) {
	for len(ol.backlog) < n {
		ol.backlog = append(ol.backlog, 0)
		ol.lastScale = append(ol.lastScale, math.Inf(-1))
		ol.scaled = append(ol.scaled, nil)
		ol.glam = append(ol.glam, 0)
		ol.gout = append(ol.gout, 0)
		ol.gwait = append(ol.gwait, 0)
	}
}

// scaledSlots returns the scheduler slots the app's autoscaled replicas
// hold (AuditSlots accounting).
func (ol *openApp) scaledSlots() int {
	n := 0
	for _, reps := range ol.scaled {
		n += len(reps)
	}
	return n
}

// appServiceRate returns μ, a server's request service rate under the
// spec's median reply size.
func appServiceRate(spec AppSpec) float64 {
	return 1 / (operators.ServiceBase + float64(operators.ServicePerBit*spec.RespBits))
}

// startOpenLoop wires the engine into a freshly constructed fleet.
func (f *Fleet) startOpenLoop() {
	p := f.Cfg.OpenLoop
	f.ol = &openLoop{p: p}
	f.ol.stopTick = f.K.Ticker(f.K.Now()+adjustPeriod, adjustPeriod, f.openLoopTick)
	if p.Admission.Enabled && p.Admission.Queue {
		f.ol.stopRetry = f.K.Ticker(f.K.Now()+admissionRetryPeriod, admissionRetryPeriod, f.openLoopRetry)
	}
}

// stopOpenLoop halts the engine tickers (fleet Stop).
func (f *Fleet) stopOpenLoop() {
	if f.ol == nil {
		return
	}
	if f.ol.stopTick != nil {
		f.ol.stopTick()
		f.ol.stopTick = nil
	}
	if f.ol.stopRetry != nil {
		f.ol.stopRetry()
		f.ol.stopRetry = nil
	}
}

// OpenLoopLedger returns the admission controller's ledger; ok is false
// when the open-loop engine is disabled.
func (f *Fleet) OpenLoopLedger() (AdmissionLedger, bool) {
	if f.ol == nil {
		return AdmissionLedger{}, false
	}
	return f.ol.ledger, true
}

// ScaleActions returns the app's autoscaler action counts (zero unless the
// open-loop engine ran).
func (a *App) ScaleActions() (ups, downs int) {
	if a.ol == nil {
		return 0, 0
	}
	return a.ol.ups, a.ol.downs
}

// AutoscaledOf returns the group's live autoscaled replica count.
func (a *App) AutoscaledOf(group string) int {
	if a.ol == nil {
		return 0
	}
	if g := slices.Index(a.Sys.Groups(), group); g >= 0 && g < len(a.ol.scaled) {
		return len(a.ol.scaled[g])
	}
	return 0
}

// openLoopOffered returns the fleet's aggregate open-loop offered load and
// service capacity in requests/sec, over live open-loop applications.
func (f *Fleet) openLoopOffered(now float64) (lambda, capacity float64) {
	for _, a := range f.admitted {
		if !a.Live() || a.ol == nil {
			continue
		}
		lambda += float64(a.ol.users * a.ol.proc.Rate(now))
		mu := appServiceRate(a.Spec)
		for _, g := range a.Sys.Groups() {
			_, active := a.Sys.ActiveServers(g)
			capacity += float64(float64(active) * mu)
		}
	}
	return lambda, capacity
}

// openLoopAdmissible applies the admission gate: would the fleet's offered
// utilization, candidate included, stay within maxUtilization?
func (f *Fleet) openLoopAdmissible(spec AppSpec, proc arrivals.Process, users, now float64) bool {
	lambda, capacity := f.openLoopOffered(now)
	lambda += float64(users * proc.Rate(now))
	capacity += float64(float64(spec.Groups*spec.ServersPerGroup) * appServiceRate(spec))
	if capacity <= 0 {
		return false
	}
	return lambda/capacity <= maxUtilization
}

// openLoopRetry re-offers queued specs; still-saturated ones stay queued.
func (f *Fleet) openLoopRetry(now float64) {
	if f.stopped || len(f.ol.queued) == 0 {
		return
	}
	kept := f.ol.queued[:0]
	for _, spec := range f.ol.queued {
		if _, err := f.admit(spec, true); errors.Is(err, errAdmissionQueued) {
			kept = append(kept, spec)
		}
	}
	f.ol.queued = kept
}

// openLoopRegister attaches per-app engine state at admission.
func (f *Fleet) openLoopRegister(a *App, proc arrivals.Process, users float64, gated bool) {
	a.ol = &openApp{
		proc: proc, users: users, gated: gated, lastTick: f.K.Now(),
	}
	a.ol.growGroups(len(a.Sys.Groups()))
	if gated {
		f.ol.ledger.Admitted++
		f.ol.ledger.Active++
	}
	// The arrival process replaces the closed-loop generators from t=0:
	// clients check paused at arrival-event time, so no real request fires.
	a.Sys.PauseClients()
}

// openLoopTeardown cancels the app's class flows and releases its
// autoscaled replicas' slots. removeServers additionally unregisters the
// replicas from the application — required before a migration's Rehost,
// which must cover exactly the spec's processes.
func (f *Fleet) openLoopTeardown(a *App, removeServers bool) {
	ol := a.ol
	if ol == nil {
		return
	}
	f.Net.Batch(func() {
		for _, fc := range ol.classes.List {
			if fc.Flow != nil {
				fc.Flow.Cancel()
			}
		}
	})
	ol.classes.Reset()
	for g, reps := range ol.scaled {
		for _, rep := range reps {
			if removeServers {
				_ = a.Sys.RemoveServer(rep.name)
			}
			f.Sch.ReleaseHost(rep.host)
		}
		ol.scaled[g] = nil
	}
}

// openLoopRetired folds a retirement into the ledger.
func (f *Fleet) openLoopRetired(a *App) {
	if a.ol != nil && a.ol.gated {
		f.ol.ledger.Active--
		f.ol.ledger.Retired++
	}
}

// openLoopTick advances every live, non-draining application. Draining
// apps were torn down at migration decision time and resume at the first
// tick after their cutover.
func (f *Fleet) openLoopTick(now float64) {
	if f.stopped {
		return
	}
	for _, a := range f.admitted {
		if a.Live() && a.pending == nil {
			f.openLoopApp(a, now)
		}
	}
}

// openLoopApp is one adjust tick for one application:
//
//  1. reconcile classes with current membership and anchors,
//  2. settle the past interval's network accounting per class,
//  3. aggregate offered load per group, advance the server fluid queues,
//     and compute each group's M/M/m latency verdict,
//  4. take scale decisions,
//  5. push new demands to the class flows (one batched solve), and
//  6. deliver per-class verdicts and completion counts to the members.
func (f *Fleet) openLoopApp(a *App, now float64) {
	ol := a.ol
	// Closed-loop generation stays off. PauseClients is idempotent, and
	// re-asserting it here re-pauses clients a cutover's ResumeClients
	// briefly woke.
	a.Sys.PauseClients()
	dt := now - ol.lastTick
	ol.lastTick = now
	if dt <= 0 {
		return
	}
	respBits := a.Spec.RespBits
	mu := appServiceRate(a.Spec)

	// (1) Reconcile classes: repairs move clients between groups, scaling
	// changes a group's first active server and migrations re-place hosts.
	// Each of those advances the system's membership revision; between
	// them the classes stand as they are.
	ol.classes.Sync(a.Sys, f.Grid.RouterIndex)
	classes := ol.classes.List
	groups := a.Sys.Groups()
	ol.growGroups(len(groups))

	// (2) Settle the past interval per class: bits the network delivered
	// against bits the servers emitted, and the completed-response count.
	ol.counts = ol.counts[:0]
	for _, fc := range classes {
		delta := 0.0
		if fc.Flow != nil {
			d := fc.Flow.Delivered()
			delta = d - fc.LastDelivered
			fc.LastDelivered = d
		}
		fc.NetBacklog += float64(fc.EmitRate*dt) - delta
		if fc.NetBacklog < 1e-9 {
			fc.NetBacklog = 0
		}
		whole := delta/respBits + fc.Credit
		n := math.Floor(whole)
		fc.Credit = whole - n
		ol.counts = append(ol.counts, uint64(n))
	}
	counts := ol.counts

	// (3) Offered load per class (members × per-member rate) and per group. A
	// class whose group has no queue offers load nobody serves: it adds to
	// no group, and below its servers emit nothing and its wait is zero.
	perUser := ol.proc.Rate(now)
	usersPerClient := ol.users / float64(len(a.Opspec.Clients))
	perMember := usersPerClient * perUser
	ol.lam = ol.lam[:0]
	clear(ol.glam)
	for _, fc := range classes {
		lam := float64(float64(len(fc.Members)) * perMember)
		ol.lam = append(ol.lam, lam)
		if fc.GroupPos >= 0 {
			ol.glam[fc.GroupPos] += lam
		}
	}

	// Server fluid queues and M/M/m verdicts per group.
	for gi, g := range groups {
		lamG := ol.glam[gi]
		_, m := a.Sys.ActiveServers(g)
		capG := float64(m) * mu
		b := ol.backlog[gi]
		out := lamG + b/dt
		if out > capG {
			out = capG
		}
		b += float64((lamG - out) * dt)
		if b < 1e-9 {
			b = 0
		}
		ol.backlog[gi] = b
		ol.gout[gi] = out

		var w float64
		q := queueing.MMm{Lambda: lamG, Mu: mu, M: m}
		switch {
		case capG <= 0:
			// No servers at all: the wait is the age of the backlog.
			if lamG > 1e-12 {
				w = b / lamG
			}
		case q.Valid():
			w = q.MeanResponse() + b/capG
		default:
			// Saturated: the M/M/m wait is +Inf; the finite fluid verdict
			// — drain the standing backlog, then one service time — still
			// blows far past any latency bound, which is what the repair
			// and scale loops need to see.
			w = 1/mu + b/capG
		}
		ol.gwait[gi] = w

		// (4) Scale decisions against offered utilization.
		if f.ol.p.Scale.Enabled {
			f.openLoopScale(a, gi, g, lamG, capG, now)
		}
	}

	// (5) New demands: what the servers emit (bounded by group capacity,
	// shared within the group in proportion to offered load) plus a
	// backlog-draining term, pushed in one batched solve.
	f.Net.Batch(func() {
		for i, fc := range classes {
			fc.EmitRate = 0
			if g := fc.GroupPos; g >= 0 && ol.glam[g] > 0 {
				fc.EmitRate = ol.lam[i] / ol.glam[g] * ol.gout[g] * respBits
			}
			demand := fc.EmitRate + fc.NetBacklog/adjustPeriod
			if fc.Flow == nil {
				fc.Flow = f.Net.StartClassFlow(fc.Src, fc.Dst, demand, a.Name+":"+fc.Group)
			} else {
				fc.Flow.SetDemand(demand)
			}
		}
	})

	// (6) Verdicts: group wait + network time along the class's real path,
	// delivered through the ordinary response pipeline. Counts spread
	// evenly over members (remainder to the earliest-registered).
	for i, fc := range classes {
		tnet := 1e-5
		if fc.Src != fc.Dst {
			avail := f.Net.AvailBandwidth(fc.Src, fc.Dst)
			if avail < netsim.MinFlowRate {
				avail = netsim.MinFlowRate
			}
			rate := fc.Flow.Rate()
			if rate < netsim.MinFlowRate {
				rate = netsim.MinFlowRate
			}
			tnet = respBits/avail + fc.NetBacklog/rate
		}
		verdict := tnet
		if fc.GroupPos >= 0 {
			verdict += ol.gwait[fc.GroupPos]
		}
		if verdict > verdictCeiling {
			verdict = verdictCeiling
		}
		members := uint64(len(fc.Members))
		base, rem := counts[i]/members, counts[i]%members
		for mi, c := range fc.Members {
			n := base
			if uint64(mi) < rem {
				n++
			}
			c.DeliverSynthetic(now, verdict, n)
		}
	}
	ol.counts = counts
}

// openLoopScale applies the scale policy to one group: one replica up on
// sustained ρ above scaleUpAt (slot permitting), one down below scaleDownAt.
func (f *Fleet) openLoopScale(a *App, gi int, g string, lamG, capG, now float64) {
	ol := a.ol
	p := f.ol.p.Scale
	if now-ol.lastScale[gi] < scaleCooldown {
		return
	}
	rho := math.Inf(1)
	if capG > 0 {
		rho = lamG / capG
	}
	reps := ol.scaled[gi]
	switch {
	case rho > scaleUpAt && len(reps) < p.MaxReplicas:
		h, err := f.Sch.Reserve()
		if err != nil {
			return // grid full: nothing to scale into, retry next tick
		}
		ol.seq++
		name := fmt.Sprintf("%s_auto%d", g, ol.seq)
		a.Sys.AddServer(name, h, g, operators.ServiceBase, operators.ServicePerBit)
		if err := a.Sys.Activate(name); err != nil {
			_ = a.Sys.RemoveServer(name)
			f.Sch.ReleaseHost(h)
			return
		}
		ol.scaled[gi] = append(reps, scaledReplica{name: name, host: h})
		ol.ups++
		ol.lastScale[gi] = now
	case rho < scaleDownAt && len(reps) > 0:
		rep := reps[len(reps)-1]
		ol.scaled[gi] = reps[:len(reps)-1]
		_ = a.Sys.RemoveServer(rep.name)
		f.Sch.ReleaseHost(rep.host)
		ol.downs++
		ol.lastScale[gi] = now
	}
}
