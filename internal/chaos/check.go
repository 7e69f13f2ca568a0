package chaos

import (
	"fmt"
	"strings"

	"archadapt/internal/fleet"
	"archadapt/internal/netsim"
)

// The two execution modes every generated scenario is checked in.
const (
	ModePinned  = "pinned"
	ModeMigrate = "migrate"
)

// Modes lists them in check order.
var Modes = []string{ModePinned, ModeMigrate}

// Violation is one invariant failure observed while checking a run.
type Violation struct {
	// Seed and Mode locate the failing run (filled by CheckSeed; Check
	// alone leaves them zero).
	Seed uint64
	Mode string
	// Invariant names the failed class: determinism, slots, netsim, ranked,
	// drains, openloop, or run (the scenario failed to start at
	// all).
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed %d (%s) %s: %s", v.Seed, v.Mode, v.Invariant, v.Detail)
}

// CheckSeed generates the scenario for one seed and checks it in both modes
// (pinned: no migration policy; migrate: the seed-derived MigratePolicy).
// It returns every violation found, or nil for a clean seed.
func CheckSeed(seed uint64) []Violation {
	base := Generate(seed)
	var out []Violation
	for _, mode := range Modes {
		opts := base
		if mode == ModeMigrate {
			opts.Migration = MigratePolicy(seed)
		}
		for _, v := range Check(opts) {
			v.Seed, v.Mode = seed, mode
			out = append(out, v)
		}
	}
	return out
}

// Check executes one scenario exactly as given — twice, for the determinism
// invariant — under the full invariant set. The options carry everything
// (including any migration policy); Check itself derives nothing from seeds,
// which is what lets a shrunk reproducer re-check as a plain literal.
func Check(opts fleet.ScenarioOptions) []Violation {
	var vs []Violation
	add := func(invariant, format string, args ...any) {
		vs = append(vs, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
	}

	run := func(o fleet.ScenarioOptions, spot bool) (*fleet.ScenarioResult, error) {
		r, err := fleet.StartScenario(o)
		if err != nil {
			return nil, err
		}
		if spot {
			// Mid-run spot checks on a 12.5 s ticker (off-phase with the 15 s
			// default decision tick): the slot/reservation ledger and the
			// incremental solver vs the retained global oracle.
			checks := 0
			r.K.Ticker(12.5, 12.5, func(now float64) {
				if checks >= 8 {
					return // cap the noise from a persistently broken run
				}
				if err := r.Fleet.AuditSlots(); err != nil {
					checks++
					add("slots", "t=%.1f: %v", now, err)
				}
				if err := r.Fleet.Net.VerifyReference(1e-6); err != nil {
					checks++
					add("netsim", "t=%.1f: %v", now, err)
				}
			})
		}
		return r.Finish(), nil
	}

	res, err := run(opts, true)
	if err != nil {
		add("run", "scenario failed to start: %v", err)
		return vs
	}
	rerun, err := run(opts, false)
	if err != nil {
		add("run", "re-run failed to start: %v", err)
		return vs
	}

	// (1) Same-seed determinism, byte-identical.
	baseFP := Fingerprint(res)
	if f2 := Fingerprint(rerun); baseFP != f2 {
		add("determinism", "same-seed runs diverge:\n--- run 1\n%s--- run 2\n%s", baseFP, f2)
	}

	f := res.Fleet
	// (2) Slot/reservation ledger after the full run, plus the fault
	// round-trip: a balanced schedule must leave zero background anywhere.
	if err := f.AuditSlots(); err != nil {
		add("slots", "post-run: %v", err)
	}
	for id := 0; id < f.Net.NumLinks(); id++ {
		for _, d := range []netsim.Dir{netsim.Fwd, netsim.Rev} {
			if bg := f.Net.Background(netsim.LinkID(id), d); bg != 0 {
				add("slots", "link %d dir %d still carries %g bps background after the balanced schedule", id, d, bg)
			}
		}
	}
	// (3) Final solver equivalence against the global oracle.
	if err := f.Net.VerifyReference(1e-6); err != nil {
		add("netsim", "post-run: %v", err)
	}
	// (4) Ranked targeting never measurably worse; (5) no stuck drains.
	for _, name := range f.Apps() {
		for i, m := range f.App(name).Migrations {
			if m.Ranked && m.TargetHealth < m.SourceHealth {
				add("ranked", "%s migration %d chose a measurably worse region: source %.4f -> target %.4f",
					name, i, m.SourceHealth, m.TargetHealth)
			}
			if !m.Completed() && !m.Aborted() && m.Err == nil {
				add("drains", "%s migration %d decided at t=%.0f never completed, aborted, or errored",
					name, i, m.DecidedAt)
			}
			if m.Completed() && m.CompletedAt < m.DecidedAt {
				add("drains", "%s migration %d completed at t=%.2f before its decision at t=%.2f",
					name, i, m.CompletedAt, m.DecidedAt)
			}
		}
	}

	// (6) Open-loop books: the admission ledger balances at both levels,
	// the active count matches the live admitted population, and no server
	// group carries more autoscaled replicas than the policy cap.
	if led, ok := f.OpenLoopLedger(); ok {
		if led.Offered != led.Admitted+led.Shed+led.Queued {
			add("openloop", "ledger unbalanced: Offered %d != Admitted %d + Shed %d + Queued %d",
				led.Offered, led.Admitted, led.Shed, led.Queued)
		}
		if led.Admitted != led.Active+led.Retired {
			add("openloop", "admitted split unbalanced: Admitted %d != Active %d + Retired %d",
				led.Admitted, led.Active, led.Retired)
		}
		if f.Cfg.OpenLoop.Admission.Enabled {
			live := 0
			for _, name := range f.Apps() {
				if f.App(name).Live() {
					live++
				}
			}
			if led.Active != live {
				add("openloop", "ledger counts %d active apps, fleet holds %d live", led.Active, live)
			}
			if led.Admitted != len(f.Apps()) {
				add("openloop", "ledger counts %d admitted apps, fleet admitted %d", led.Admitted, len(f.Apps()))
			}
		}
		maxReps := f.Cfg.OpenLoop.Scale.MaxReplicas
		for _, name := range f.Apps() {
			a := f.App(name)
			for _, g := range a.Sys.Groups() {
				if n := a.AutoscaledOf(g); n > maxReps {
					add("openloop", "%s group %s carries %d autoscaled replicas, over the cap %d",
						name, g, n, maxReps)
				}
			}
		}
	}
	return vs
}

// Fingerprint renders everything a deterministic run must reproduce: the
// summary table, every application's migration records (timings, abort
// state, targeting scores), the rejections, the final free-slot count and
// the migration high-water mark.
func Fingerprint(res *fleet.ScenarioResult) string {
	var b strings.Builder
	b.WriteString(res.Table())
	f := res.Fleet
	for _, name := range f.Apps() {
		for i, m := range f.App(name).Migrations {
			fmt.Fprintf(&b, "mig %s #%d decided=%.3f completed=%.3f aborted=%.3f drained=%v ranked=%v src=%.6f dst=%.6f err=%v\n",
				name, i, m.DecidedAt, m.CompletedAt, m.AbortedAt, m.Drained, m.Ranked,
				m.SourceHealth, m.TargetHealth, m.Err)
		}
	}
	for _, rej := range f.Rejections() {
		fmt.Fprintf(&b, "rej %s t=%.3f: %v\n", rej.Name, rej.Time, rej.Err)
	}
	if led, ok := f.OpenLoopLedger(); ok {
		fmt.Fprintf(&b, "openloop offered=%d admitted=%d shed=%d queued=%d active=%d retired=%d\n",
			led.Offered, led.Admitted, led.Shed, led.Queued, led.Active, led.Retired)
		for _, name := range f.Apps() {
			if ups, downs := f.App(name).ScaleActions(); ups+downs > 0 {
				fmt.Fprintf(&b, "scale %s ups=%d downs=%d\n", name, ups, downs)
			}
		}
	}
	fmt.Fprintf(&b, "free-slots=%d peak-migrations=%d\n", f.Sch.FreeSlots(), f.PeakConcurrentMigrations())
	return b.String()
}
