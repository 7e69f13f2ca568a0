// Grid-scale fault injection: the degradations the scenario catalog and the
// chaos engine aim at a running fleet. Three families, all deterministic and
// all built on the same refcounted link-contention bookkeeping so overlapping
// injections compose instead of corrupting each other:
//
//   - per-application crushes (CrushPrimary, CrushServers): starve the access
//     links of one app's active servers, Figure 7-style targeted competition;
//   - backbone contention (CrushBackbone): load a fraction of the backbone
//     chain, correlated cross-region degradation;
//   - region failure (FailRegion): starve every access link under one router,
//     whoever owns the processes there.
//
// Every injector has a restore, every restore validates its pairing —
// restoring something that was never failed returns an error instead of
// silently clearing link state another injector still owns — and the
// backbone/region injectors refcount repeated failures, so a nested
// FailRegion holds the region down until the matching number of restores.
// Partial restores (RestoreBackboneFraction, RestoreRegionFraction) lift a
// subset of a standing failure's links, the half-recovered grids the chaos
// engine races drains against.
package fleet

import (
	"fmt"
	"math"
	"slices"

	"archadapt/internal/netsim"
)

// --- per-application access-link contention ---

// CrushPrimary starves the access links of an application's primary-group
// servers that are active right now — including any spares repairs have
// recruited — (Figure 7-style bandwidth competition, aimed at one
// application), leaving ≈5 Kbps available — below the 10 Kbps floor, so the
// bandwidth tactic must move the clients to another group. Links are
// refcounted across applications: when apps share hosts, one app's restore
// never lifts another's still-active contention.
func (f *Fleet) CrushPrimary(name string) error {
	a := f.apps[name]
	if a == nil {
		return fmt.Errorf("fleet: no application %q", name)
	}
	if !a.Live() {
		return fmt.Errorf("fleet: application %q is retired", name)
	}
	if len(a.crushed) > 0 {
		return nil // already crushed
	}
	// Batched: one reflow for the whole group's links, not one per link.
	f.crushServersOf(a, []string{a.Opspec.Groups[0].Name})
	return nil
}

// CrushServers starves the access links of every group's active servers —
// the whole application's region degrades at once, so intra-app repair
// (move the clients to another group) has nowhere good to go. This is the
// degradation migration exists for; RestorePrimary lifts it.
func (f *Fleet) CrushServers(name string) error {
	a := f.apps[name]
	if a == nil {
		return fmt.Errorf("fleet: no application %q", name)
	}
	if !a.Live() {
		return fmt.Errorf("fleet: application %q is retired", name)
	}
	if len(a.crushed) > 0 {
		return nil // already crushed
	}
	f.crushServersOf(a, a.Sys.Groups())
	return nil
}

// RestorePrimary lifts the competition installed by CrushPrimary or
// CrushServers (whatever links were crushed for this application, wherever
// it has since migrated to).
func (f *Fleet) RestorePrimary(name string) {
	a := f.apps[name]
	if a == nil {
		return
	}
	f.Net.Batch(func() {
		for _, link := range a.crushed {
			f.dropCrush(link)
		}
	})
	a.crushed = nil
}

// crushServersOf starves the access links of the named groups' currently
// active servers, leaving ≈5 Kbps available (below the 10 Kbps floor).
// Links are refcounted across applications and region failures.
func (f *Fleet) crushServersOf(a *App, groups []string) {
	f.Net.Batch(func() {
		for _, g := range groups {
			for _, name := range a.Sys.Servers() {
				srv := a.Sys.Server(name)
				if !srv.Active() || srv.Group != g {
					continue
				}
				link := f.Grid.AccessLink(srv.Host)
				f.addCrush(link, starvedBg)
				a.crushed = append(a.crushed, link)
			}
		}
	})
}

// starvedBg is the background load that starves an access link, leaving
// ≈5 Kbps available: below the 10 Kbps floor.
const starvedBg = netsim.AccessBps - 5e3

// addCrush refcounts contention on one link, installing the background load
// bg on the first reference.
func (f *Fleet) addCrush(link netsim.LinkID, bg float64) {
	f.crushes[link]++
	if f.crushes[link] == 1 {
		f.Net.SetBackgroundBoth(link, bg)
	}
}

// dropCrush releases one reference, lifting the load on the last.
func (f *Fleet) dropCrush(link netsim.LinkID) {
	f.crushes[link]--
	if f.crushes[link] <= 0 {
		delete(f.crushes, link)
		f.Net.SetBackgroundBoth(link, 0)
	}
}

// outage is one standing backbone or region failure: refs nests repeated
// injections, links holds what is still crushed (partial restores shrink
// it), and since records when the failure began — the drain-race check
// compares it against a migration's decision time.
type outage struct {
	refs  int
	links []netsim.LinkID
	since float64
}

// hold takes one reference on o; the first crushes links, which o then
// owns, down to bg.
func (f *Fleet) hold(o *outage, links []netsim.LinkID, bg float64) {
	o.refs++
	if o.refs > 1 {
		return // already failed; the matching restore just unnests
	}
	o.since, o.links = f.K.Now(), links
	f.Net.Batch(func() {
		for _, link := range links {
			f.addCrush(link, bg)
		}
	})
}

// release balances one reference on o; the last lifts the links still
// crushed and reports true.
func (f *Fleet) release(o *outage) bool {
	o.refs--
	if o.refs > 0 {
		return false // still nested inside an outer failure
	}
	f.Net.Batch(func() {
		for _, link := range o.links {
			f.dropCrush(link)
		}
	})
	o.links = nil
	return true
}

// liftFraction lifts the given fraction of o's still-crushed links (rounded
// up, in crush order) without balancing the failure itself.
func (f *Fleet) liftFraction(o *outage, fraction float64) {
	n := min(max(int(math.Ceil(fraction*float64(len(o.links)))), 0), len(o.links))
	f.Net.Batch(func() {
		for _, link := range o.links[:n] {
			f.dropCrush(link)
		}
	})
	o.links = append([]netsim.LinkID(nil), o.links[n:]...)
}

// --- backbone contention ---

// CrushBackbone loads a fraction of the backbone links with background
// traffic, leaving leaveBps available per direction — correlated
// cross-region contention rather than a per-app access-link crush. Links are
// taken in Grid.Backbone order (the chain first, then the chords), so
// fraction 0.5 loads the first half of the chain. Repeated crushes nest: the
// first call's fraction and leaveBps stay in force, and the contention lifts
// only when RestoreBackbone has balanced every call.
func (f *Fleet) CrushBackbone(fraction, leaveBps float64) {
	n := min(max(int(fraction*float64(len(f.Grid.Backbone))), 1), len(f.Grid.Backbone))
	f.hold(&f.backbone, slices.Clone(f.Grid.Backbone[:n]), max(netsim.BackboneBps-leaveBps, 0))
}

// RestoreBackbone balances one CrushBackbone call, lifting the remaining
// contention when every crush has been matched. Restoring a backbone that
// was never crushed is an error and changes nothing — an unbalanced restore
// must not clear link state some other injector still owns.
func (f *Fleet) RestoreBackbone() error {
	if f.backbone.refs == 0 {
		return fmt.Errorf("fleet: backbone is not crushed")
	}
	f.release(&f.backbone)
	return nil
}

// RestoreBackboneFraction lifts the given fraction of the still-crushed
// backbone links (rounded up, in crush order) without balancing the crush
// itself — a partial recovery mid-failure. The remaining links stay loaded
// until RestoreBackbone balances every CrushBackbone call.
func (f *Fleet) RestoreBackboneFraction(fraction float64) error {
	if f.backbone.refs == 0 {
		return fmt.Errorf("fleet: backbone is not crushed")
	}
	f.liftFraction(&f.backbone, fraction)
	return nil
}

// --- region failure ---

// FailRegion starves every access link under router r (0-based index) —
// region-wide failure injection: every process on the region's hosts,
// whichever application owns it, loses its connectivity. Link contention is
// refcounted with the per-app crushes, and repeated failures of the same
// region nest: the region recovers only when RestoreRegion has balanced
// every FailRegion call.
func (f *Fleet) FailRegion(r int) error {
	if r < 0 || r >= len(f.Grid.HostsByRouter) {
		return fmt.Errorf("fleet: no router %d", r)
	}
	o := f.regions[r]
	if o == nil {
		o = &outage{}
		f.regions[r] = o
	}
	var links []netsim.LinkID
	for _, h := range f.Grid.HostsByRouter[r] {
		links = append(links, f.Grid.AccessLink(h))
	}
	f.hold(o, links, starvedBg)
	return nil
}

// RestoreRegion balances one FailRegion call, lifting the region's remaining
// crushed links when every failure has been matched. Restoring a region that
// is not failed is an error and changes nothing.
func (f *Fleet) RestoreRegion(r int) error {
	o := f.regions[r]
	if o == nil {
		return fmt.Errorf("fleet: region %d is not failed", r)
	}
	if f.release(o) {
		delete(f.regions, r)
	}
	return nil
}

// RestoreRegionFraction lifts the given fraction of a failed region's
// still-crushed access links (rounded up, in failure order) without
// balancing the failure itself — a half-recovered region. The rest stay
// starved until RestoreRegion balances every FailRegion call.
func (f *Fleet) RestoreRegionFraction(r int, fraction float64) error {
	o := f.regions[r]
	if o == nil {
		return fmt.Errorf("fleet: region %d is not failed", r)
	}
	f.liftFraction(o, fraction)
	return nil
}

// targetFailedSince reports whether any host of a staged assignment sits in
// a region whose current failure began after the given decision time — the
// drain-race check: a migration must not cut over into a region that failed
// underneath it, but a failure that predates the decision was already priced
// in by targeting (the avoid-set path may place into a failed region; the
// ranked index steers around them).
func (f *Fleet) targetFailedSince(asg *Assignment, decidedAt float64) (int, bool) {
	failed, region := false, -1
	asg.hosts(func(h netsim.NodeID) {
		if failed {
			return
		}
		r := f.Grid.RouterIndex(h)
		if o := f.regions[r]; o != nil && o.since > decidedAt {
			failed, region = true, r
		}
	})
	return region, failed
}

// --- the fault-schedule vocabulary (ScenarioOptions.Faults) ---

// FaultKind names one injectable fault in a scenario's fault schedule.
type FaultKind string

const (
	// FaultCrushPrimary crushes App's primary-group server links;
	// FaultCrushAll crushes every group's. Duration > 0 schedules the
	// matching RestorePrimary; FaultRestoreApp restores explicitly.
	FaultCrushPrimary FaultKind = "crush-primary"
	FaultCrushAll     FaultKind = "crush-all"
	FaultRestoreApp   FaultKind = "restore-app"

	// FaultBackboneCrush loads Fraction of the backbone down to LeaveBps;
	// Duration > 0 schedules the matching RestoreBackbone.
	// FaultBackbonePartialRestore lifts Fraction of the crushed links early.
	FaultBackboneCrush          FaultKind = "backbone-crush"
	FaultBackboneRestore        FaultKind = "backbone-restore"
	FaultBackbonePartialRestore FaultKind = "backbone-partial-restore"

	// FaultRegionFail starves region Router; Duration > 0 schedules the
	// matching RestoreRegion. FaultRegionPartialRestore lifts Fraction of
	// the failed links early.
	FaultRegionFail           FaultKind = "region-fail"
	FaultRegionRestore        FaultKind = "region-restore"
	FaultRegionPartialRestore FaultKind = "region-partial-restore"

	// FaultRetire retires App; FaultMigrate forces an operator migration of
	// App (works in pinned mode too — the operator path needs no policy).
	FaultRetire  FaultKind = "retire"
	FaultMigrate FaultKind = "migrate"
)

// Fault is one scheduled event in a scenario's fault schedule — the
// machine-writable form of the injector calls the hand-written scenarios
// place directly on the kernel. All fields are plain values so a schedule
// (and the options carrying it) round-trips through JSON.
type Fault struct {
	// At is the injection time in simulated seconds.
	At   float64
	Kind FaultKind
	// App indexes the scenario's application (app00, app01, …) for the
	// per-app kinds.
	App int
	// Router is the region index for the region kinds.
	Router int
	// Fraction and LeaveBps parameterize the backbone kinds; Fraction also
	// sizes the partial restores.
	Fraction float64
	LeaveBps float64
	// Duration > 0 auto-schedules the fault's matching restore at
	// At+Duration. Ignored by the restore and one-shot kinds.
	Duration float64
}

// apply injects one fault now. Injector errors are deliberately ignored:
// chaos schedules legitimately race restores against each other and against
// retirement, and an unbalanced call is defined to be a safe no-op.
func (f *Fleet) applyFault(flt Fault, appName func(int) string) {
	switch flt.Kind {
	case FaultCrushPrimary:
		_ = f.CrushPrimary(appName(flt.App))
	case FaultCrushAll:
		_ = f.CrushServers(appName(flt.App))
	case FaultRestoreApp:
		f.RestorePrimary(appName(flt.App))
	case FaultBackboneCrush:
		f.CrushBackbone(flt.Fraction, flt.LeaveBps)
	case FaultBackboneRestore:
		_ = f.RestoreBackbone()
	case FaultBackbonePartialRestore:
		_ = f.RestoreBackboneFraction(flt.Fraction)
	case FaultRegionFail:
		_ = f.FailRegion(flt.Router)
	case FaultRegionRestore:
		_ = f.RestoreRegion(flt.Router)
	case FaultRegionPartialRestore:
		_ = f.RestoreRegionFraction(flt.Router, flt.Fraction)
	case FaultRetire:
		if a := f.App(appName(flt.App)); a != nil && a.Live() {
			_ = f.Retire(appName(flt.App))
		}
	case FaultMigrate:
		_ = f.Migrate(appName(flt.App))
	}
}

// known reports whether k is one of the kinds applyFault handles.
func (k FaultKind) known() bool {
	switch k {
	case FaultCrushPrimary, FaultCrushAll, FaultRestoreApp,
		FaultBackboneCrush, FaultBackboneRestore, FaultBackbonePartialRestore,
		FaultRegionFail, FaultRegionRestore, FaultRegionPartialRestore,
		FaultRetire, FaultMigrate:
		return true
	}
	return false
}

// restoreKind returns the restore paired with an injection kind (for
// Fault.Duration auto-scheduling), or "" when the kind has no restore.
func (k FaultKind) restoreKind() FaultKind {
	switch k {
	case FaultCrushPrimary, FaultCrushAll:
		return FaultRestoreApp
	case FaultBackboneCrush:
		return FaultBackboneRestore
	case FaultRegionFail:
		return FaultRegionRestore
	}
	return ""
}
