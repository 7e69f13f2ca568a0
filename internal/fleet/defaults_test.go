package fleet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"archadapt/internal/core"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// TestMigrationPolicyWithDefaults is the direct table-driven test of the
// policy defaulting rules: zero fields fill in, explicit fields survive,
// and a drain timeout below the check period is clamped up to it (the
// controller cannot re-evaluate faster than it measures).
func TestMigrationPolicyWithDefaults(t *testing.T) {
	cases := []struct {
		name  string
		in    MigrationPolicy
		want  MigrationPolicy
		drain float64
	}{
		{
			name:  "zero fills every default",
			in:    MigrationPolicy{},
			want:  MigrationPolicy{CheckPeriod: 15, Patience: 4, Cooldown: 300, MaxConcurrent: 2},
			drain: 30,
		},
		{
			name: "explicit fields survive, the rest default",
			in:   MigrationPolicy{Enabled: true, Patience: 2, Cooldown: 60, MaxConcurrent: 5},
			want: MigrationPolicy{
				Enabled: true, CheckPeriod: 15, Patience: 2, Cooldown: 60, MaxConcurrent: 5,
			},
			drain: 30,
		},
		{
			name:  "drain timeout below the check period is clamped up",
			in:    MigrationPolicy{CheckPeriod: 45},
			want:  MigrationPolicy{CheckPeriod: 45, Patience: 4, Cooldown: 300, MaxConcurrent: 2},
			drain: 45,
		},
		{
			name:  "default drain timeout clamps to a long check period",
			in:    MigrationPolicy{CheckPeriod: 60},
			want:  MigrationPolicy{CheckPeriod: 60, Patience: 4, Cooldown: 300, MaxConcurrent: 2},
			drain: 60,
		},
		{
			name: "ranked knobs survive",
			in:   MigrationPolicy{Enabled: true, Ranked: true},
			want: MigrationPolicy{
				Enabled: true, Ranked: true, CheckPeriod: 15, Patience: 4, Cooldown: 300, MaxConcurrent: 2,
			},
			drain: 30,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.in.validate(); err != nil {
				t.Fatalf("validate rejected a valid policy: %v", err)
			}
			got := c.in.withDefaults()
			if got != c.want {
				t.Errorf("withDefaults:\n got %+v\nwant %+v", got, c.want)
			}
			if d := got.drainBound(); d != c.drain {
				t.Errorf("drainBound = %v, want %v", d, c.drain)
			}
		})
	}
}

// TestMigrationPolicyValidate rejects the nonsensical policies withDefaults
// used to silently "fix": negative knobs, NaNs and out-of-range fractions
// all fail, and fleet construction surfaces the error.
func TestMigrationPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		in   MigrationPolicy
		frag string // expected substring of the error
	}{
		{"negative check period", MigrationPolicy{CheckPeriod: -1}, "CheckPeriod"},
		{"NaN check period", MigrationPolicy{CheckPeriod: math.NaN()}, "CheckPeriod"},
		{"negative patience", MigrationPolicy{Patience: -2}, "Patience"},
		{"negative cooldown", MigrationPolicy{Cooldown: -5}, "Cooldown"},
		{"NaN cooldown", MigrationPolicy{Cooldown: math.NaN()}, "Cooldown"},
		{"negative max concurrent", MigrationPolicy{MaxConcurrent: -3}, "MaxConcurrent"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.in.validate()
			if err == nil {
				t.Fatalf("validate accepted %+v", c.in)
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("error %q does not name %s", err, c.frag)
			}
			// New surfaces the same rejection.
			k := sim.NewKernel()
			grid := netsim.GenerateGrid(k, netsim.GridSpec{Routers: 3, HostsPerRouter: 2, Seed: 1})
			cfg := Config{}
			cfg.Migration = c.in
			if _, err := New(k, grid, 1, cfg); err == nil {
				t.Error("New accepted the invalid policy")
			}
		})
	}
}

// TestScenarioOptionsValidate feeds StartScenario one bad value per
// time-valued field, a non-finite rate, size, period or fraction at every
// nesting the options have (and a misspelt fault kind, and region failures
// aimed off the grid): each must come back as a one-line error naming the
// field — not a kernel panic, not a run that never ends, and not a healthy run
// with nothing injected.
func TestScenarioOptionsValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		frag string // the field the error must name
		in   ScenarioOptions
	}{
		{"Duration", ScenarioOptions{Duration: nan}},
		{"Duration", ScenarioOptions{Duration: inf}},
		{"AdmitStagger", ScenarioOptions{AdmitStagger: nan}},
		{"RetireAfter", ScenarioOptions{RetireAfter: inf}},
		{"CrushStart", ScenarioOptions{CrushStart: nan}},
		{"CrushStagger", ScenarioOptions{CrushStagger: nan}},
		{"CrushDuration", ScenarioOptions{CrushDuration: nan}},
		{"BackboneCrushStart", ScenarioOptions{BackboneCrushStart: nan}},
		{"BackboneCrushDuration", ScenarioOptions{BackboneCrushStart: 100, BackboneCrushDuration: math.Inf(-1)}},
		{"RegionFailStart", ScenarioOptions{RegionFailStart: inf}},
		{"RegionFailDuration", ScenarioOptions{RegionFailStart: 100, RegionFailDuration: nan}},
		{"Faults[1].At", ScenarioOptions{Faults: []Fault{
			{At: 10, Kind: FaultRetire}, {At: nan, Kind: FaultRetire}}}},
		{"Faults[0].At", ScenarioOptions{Faults: []Fault{{At: -1, Kind: FaultRetire}}}},
		{"Faults[0].Duration", ScenarioOptions{Faults: []Fault{{At: 10, Kind: FaultRegionFail, Duration: nan}}}},
		{"Faults[0].Kind", ScenarioOptions{Faults: []Fault{{At: 10, Kind: "region-fial"}}}},
		// Past the time fields: each of these scheduled an event at NaN and
		// panicked in the kernel, and the infinite rate never returned.
		{"App.ClientRate", ScenarioOptions{App: AppSpec{ClientRate: nan}}},
		{"App.ClientRate", ScenarioOptions{App: AppSpec{ClientRate: inf}}},
		{"App.RespBits", ScenarioOptions{App: AppSpec{RespBits: nan}}},
		{"Manager.SettleTime", ScenarioOptions{Manager: core.Config{SettleTime: nan}}},
		{"Faults[0].Fraction", ScenarioOptions{Faults: []Fault{{Kind: FaultBackboneCrush, Fraction: nan, LeaveBps: nan}}}},
		{"AppMix[1].ClientRate", ScenarioOptions{AppMix: []AppSpec{{}, {ClientRate: nan}}}},
		// A negative count shrank the auto-sized grid to one router and
		// rejected every app as "grid full".
		{"SpareRouters", ScenarioOptions{SpareRouters: -4}},
		// Two default apps auto-size to five routers; an explicit size wins.
		{"RegionFailRouter = 5", ScenarioOptions{RegionFailStart: 10, RegionFailRouter: 5}},
		{"RegionFailRouter = -1", ScenarioOptions{RegionFailStart: 10, RegionFailRouter: -1}},
		{"RegionFailRouter = 6", ScenarioOptions{Routers: 6, HostsPerRouter: 4, RegionFailStart: 10, RegionFailRouter: 6}},
		{"Faults[1].Router = 5", ScenarioOptions{Faults: []Fault{
			{At: 10, Kind: FaultRegionFail, Router: 4}, {At: 20, Kind: FaultRegionRestore, Router: 5}}}},
		{"Faults[0].Router = -2", ScenarioOptions{Faults: []Fault{{At: 10, Kind: FaultRegionPartialRestore, Router: -2}}}},
	}
	for _, c := range cases {
		t.Run(c.frag, func(t *testing.T) {
			c.in.Apps = 2
			_, err := StartScenario(c.in)
			if err == nil {
				t.Fatalf("StartScenario accepted %+v", c.in)
			}
			if !strings.Contains(err.Error(), c.frag) || strings.Contains(err.Error(), "\n") {
				t.Errorf("error %q is not one line naming %s", err, c.frag)
			}
		})
	}
	// The zero value and the disabling sentinels stay valid, and so do the last
	// router of the grid, a router index no region kind reads and a fault
	// aimed at an app the scenario does not have.
	if err := (ScenarioOptions{CrushStart: -1}).validate(); err != nil {
		t.Errorf("validate rejected a valid scenario: %v", err)
	}
	if _, err := StartScenario(ScenarioOptions{Apps: 2, RegionFailRouter: 99, Faults: []Fault{
		{At: 10, Kind: FaultRegionFail, Router: 4, Duration: 5},
		{At: 10, Kind: FaultRetire, App: 7, Router: 99},
	}}); err != nil {
		t.Errorf("StartScenario rejected a valid scenario: %v", err)
	}
}

// TestConfigWithDefaults covers the fleet-config defaulting rules directly.
func TestConfigWithDefaults(t *testing.T) {
	got := Config{}.withDefaults()
	if got.HostCapacity != 4 {
		t.Errorf("zero Config defaulted to %+v", got)
	}
	got = Config{HostCapacity: -2}.withDefaults()
	if got.HostCapacity != 4 {
		t.Errorf("negative Config fields not clamped: %+v", got)
	}
	kept := Config{HostCapacity: 2}.withDefaults()
	if kept.HostCapacity != 2 {
		t.Errorf("explicit Config fields overwritten: %+v", kept)
	}
}

// TestAppSpecWithDefaults covers the per-application defaulting rules,
// including the negative values that clamp rather than reject (an AppSpec
// is workload description, not a control policy).
func TestAppSpecWithDefaults(t *testing.T) {
	got := AppSpec{}.withDefaults()
	want := AppSpec{
		Groups: 2, ServersPerGroup: 2, SparesPerGroup: 0, Clients: 2,
		ClientRate: 1, RespBits: 8 * 8192,
		MaxLatency: 2, MaxServerLoad: 6, MinBandwidth: 10e3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero AppSpec:\n got %+v\nwant %+v", got, want)
	}
	neg := AppSpec{Groups: -1, ServersPerGroup: -1, SparesPerGroup: -4, Clients: -1,
		ClientRate: -1, RespBits: -1, MaxLatency: -1, MaxServerLoad: -1, MinBandwidth: -1}.withDefaults()
	if !reflect.DeepEqual(neg, want) {
		t.Errorf("negative AppSpec not clamped to defaults:\n got %+v\nwant %+v", neg, want)
	}
}
