package main

import (
	"bytes"
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
