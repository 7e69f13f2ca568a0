package main

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"archadapt"
)

// TestOpenLoopFlagMapping pins how -openloop and -users resolve, with and
// without -scenario: an explicit -openloop=false wins in both branches and
// the ignored -users draws the one-line warning.
func TestOpenLoopFlagMapping(t *testing.T) {
	const warning = "fleet: -users has no effect together with -openloop=false\n"
	on := func(users int) archadapt.FleetOpenLoopPolicy {
		return archadapt.FleetOpenLoopPolicy{Enabled: true, Users: users,
			Scale: archadapt.FleetScalePolicy{Enabled: true}}
	}
	entry, err := archadapt.FleetScenarioByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	if !entry.Opts.OpenLoop.Enabled {
		t.Fatal("flash-crowd no longer enables the open-loop engine; pick another entry")
	}
	entryOff, entryUsers := entry.Opts.OpenLoop, entry.Opts.OpenLoop
	entryOff.Enabled = false
	entryUsers.Users = 1000

	for _, tc := range []struct {
		args   string
		want   archadapt.FleetOpenLoopPolicy
		stderr string
	}{
		{"", archadapt.FleetOpenLoopPolicy{}, ""},
		{"-openloop", on(0), ""},
		{"-users 1000", on(1000), ""},
		{"-openloop -users 1000", on(1000), ""},
		{"-openloop=false", archadapt.FleetOpenLoopPolicy{}, ""},
		{"-openloop=false -users 1000", archadapt.FleetOpenLoopPolicy{}, warning},
		{"-scenario flash-crowd", entry.Opts.OpenLoop, ""},
		{"-scenario flash-crowd -users 1000", entryUsers, ""},
		{"-scenario flash-crowd -openloop=false", entryOff, ""},
		{"-scenario flash-crowd -openloop=false -users 1000", entryOff, warning},
		{"-scenario baseline -users 1000", on(1000), ""},
	} {
		var stderr bytes.Buffer
		c, err := parseArgs(strings.Fields(tc.args), &stderr)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
			continue
		}
		if c.base.OpenLoop != tc.want {
			t.Errorf("%q: OpenLoop = %+v, want %+v", tc.args, c.base.OpenLoop, tc.want)
		}
		if stderr.String() != tc.stderr {
			t.Errorf("%q: stderr = %q, want %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestShapeFlagsBindToTheOptions pins what a command line resolves to now that
// every shape flag is bound to its FleetScenarioOptions field: with none set,
// the CLI defaults (or the named entry) come through untouched, and a flag
// that is set overrides its one field — of an entry too, silently — and
// nothing else.
func TestShapeFlagsBindToTheOptions(t *testing.T) {
	resolve := func(args string) archadapt.FleetScenarioOptions {
		t.Helper()
		var stderr bytes.Buffer
		c, err := parseArgs(strings.Fields(args), &stderr)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if stderr.Len() != 0 {
			t.Errorf("%q: stderr = %q, want none", args, stderr.String())
		}
		return c.base
	}
	// What the struct literal in parseArgs used to spell out. RegionFailRouter
	// was filled in only beside -region-fail; its default now sits in the
	// field, unread while RegionFailStart is zero.
	defaults := archadapt.FleetScenarioOptions{
		Apps: 32, Seed: 1, Duration: 600, HostCapacity: 1,
		CrushStart: 120, CrushStagger: 5, CrushDuration: 240,
		RegionFailRouter: 1,
	}
	if got := resolve(""); !reflect.DeepEqual(got, defaults) {
		t.Errorf("no flags:\n got %+v\nwant %+v", got, defaults)
	}
	want := defaults
	want.RegionFailStart, want.RegionFailRouter, want.Manager.SettleTime = 100, 2, 30
	want.Migration = archadapt.FleetMigrationPolicy{Enabled: true, Ranked: true}
	if got := resolve("-region-fail 100 -region-fail-router 2 -ranked -settle 30"); !reflect.DeepEqual(got, want) {
		t.Errorf("flags over the defaults:\n got %+v\nwant %+v", got, want)
	}

	for _, e := range archadapt.FleetCatalog() {
		want := e.Opts
		if got := resolve("-scenario " + e.Name); !reflect.DeepEqual(got, want) {
			t.Errorf("-scenario %s:\n got %+v\nwant %+v", e.Name, got, want)
		}
	}
	entry, err := archadapt.FleetScenarioByName("baseline")
	if err != nil {
		t.Fatal(err)
	}
	want = entry.Opts
	want.CrushStagger, want.HostCapacity = 10, 2
	if got := resolve("-scenario baseline -crush-stagger 10 -host-capacity 2"); !reflect.DeepEqual(got, want) {
		t.Errorf("flags over an entry:\n got %+v\nwant %+v", got, want)
	}
}

// TestRemovedFlagsRejected: the worker pool (PR 16) and shard plane (PR 13)
// are gone, and so are the flags that selected them.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range []string{"-workers 1", "-shards 2"} {
		var stderr bytes.Buffer
		_, err := parseArgs(strings.Fields(args), &stderr)
		want := "flag provided but not defined: " + strings.Fields(args)[0]
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want %q", args, err, want)
		}
	}
}

// TestStdoutIsAFunctionOfTheSeed: two invocations of one command line print
// byte-identical tables, and the host timings — set-up (StartScenario) and
// run (Finish), the split a profiler would otherwise be needed for — ride
// the stderr summary line, where they cannot disturb that.
func TestStdoutIsAFunctionOfTheSeed(t *testing.T) {
	summary := regexp.MustCompile(`^ran adaptive fleet: grid\{[^}]*\}, 4 apps admitted, 0 rejected, set-up \d+\.\d{3}s, run \d+\.\d{3}s\n`)
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		c, err := parseArgs(strings.Fields("-apps 4 -mode adaptive -seed 3 -duration 200"), &stderr)
		if err != nil {
			t.Fatal(err)
		}
		if code := execute(c, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		if !summary.MatchString(stderr.String()) {
			t.Errorf("stderr = %q, want a line matching %v", stderr.String(), summary)
		}
		if !strings.HasPrefix(stdout.String(), "=== adaptive fleet ===\n") {
			t.Fatalf("stdout = %q", stdout.String())
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Errorf("same command line, different stdout:\n%s\n---\n%s", first, stdout.String())
		}
	}
}

// TestMistypedRegionIsAnError: a -region-fail aimed at a router the grid does
// not have is refused with exit status 1, not run as a healthy fleet with
// nothing injected.
func TestMistypedRegionIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	c, err := parseArgs(strings.Fields("-mode adaptive -apps 2 -duration 50 -region-fail 10 -region-fail-router 99"), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if code := execute(c, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	const want = "fleet: adaptive run: fleet: ScenarioOptions.RegionFailRouter = 99 is not a router of the 5-router grid\n"
	if stderr.String() != want || stdout.Len() != 0 {
		t.Errorf("stderr = %q, stdout = %q; want stderr %q and no table", stderr.String(), stdout.String(), want)
	}
}
