package main

import (
	"bytes"
	"strings"
	"testing"

	"archadapt"
)

// TestBadFlagsAreRejected: a value the command cannot honour is one
// "archadapt: …" line on stderr and an error (exit status 2), never a panic,
// a silent exit 0 or a run with a meaningless setting.
func TestBadFlagsAreRejected(t *testing.T) {
	for _, tc := range []struct{ args, stderr string }{
		{"-duration NaN", "archadapt: -duration NaN: want a finite number of seconds >= 0\n"},
		{"-duration -1", "archadapt: -duration -1: want a finite number of seconds >= 0\n"},
		{"-duration +Inf", "archadapt: -duration +Inf: want a finite number of seconds >= 0\n"},
		{"-settle NaN", "archadapt: -settle NaN: want a finite number of seconds >= 0\n"},
		{"-settle -5", "archadapt: -settle -5: want a finite number of seconds >= 0\n"},
		{"-mode foo", "archadapt: unknown -mode \"foo\" (want control|adaptive|both)\n"},
		{"-fig 5", "archadapt: unknown -fig 5 (want 7-13, or 0 for the summaries)\n"},
		{"-fig 5 -csv", "archadapt: unknown -fig 5 (want 7-13, or 0 for the summaries)\n"},
		{"-fig 14", "archadapt: unknown -fig 14 (want 7-13, or 0 for the summaries)\n"},
		{"-fig 11 -mode control", "archadapt: figure 11 needs the adaptive run (-mode adaptive or both)\n"},
		{"-fig 8 -mode adaptive", "archadapt: figure 8 needs the control run (-mode control or both)\n"},
	} {
		var stderr bytes.Buffer
		if _, err := parseArgs(strings.Fields(tc.args), &stderr); err == nil {
			t.Errorf("%q: accepted", tc.args)
		}
		if stderr.String() != tc.stderr {
			t.Errorf("%q: stderr = %q, want %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}

// TestFlagsMapOntoTheOptions: with no flags the command runs the paper's
// configuration, and each extension flag sets its one manager field.
func TestFlagsMapOntoTheOptions(t *testing.T) {
	parse := func(args string) *cli {
		t.Helper()
		var stderr bytes.Buffer
		c, err := parseArgs(strings.Fields(args), &stderr)
		if err != nil || stderr.Len() != 0 {
			t.Fatalf("%q: err = %v, stderr = %q", args, err, stderr.String())
		}
		return c
	}
	c := parse("")
	if c.mode != "both" || c.fig != 0 || c.csv || c.base != (archadapt.ExperimentOptions{Seed: 1}) {
		t.Errorf("no flags: %+v", c)
	}
	want := archadapt.ManagerConfig{GaugeCaching: true, SkipRemosPrequery: true, SmartSelection: true,
		SettleTime: 60, MonitoringPriority: archadapt.Prioritized}
	c = parse("-caching -cold-remos -smart -settle 60 -qos -seed 7 -duration 900 -oscillate -fig 7 -mode adaptive")
	if c.base != (archadapt.ExperimentOptions{Seed: 7, Duration: 900, Oscillate: true, Cfg: want}) || c.fig != 7 || c.mode != "adaptive" {
		t.Errorf("every flag: %+v", c)
	}
}

// TestControlSummary: one short control run prints its summary block and
// nothing else.
func TestControlSummary(t *testing.T) {
	var stdout, stderr bytes.Buffer
	c, err := parseArgs(strings.Fields("-mode control -duration 200"), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	execute(c, &stdout, &stderr)
	if out := stdout.String(); !strings.HasPrefix(out, "run=control\n  first latency violation") || strings.Contains(out, "adaptive") {
		t.Errorf("stdout = %q", out)
	}
}
