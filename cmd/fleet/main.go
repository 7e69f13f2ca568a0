// Command fleet runs many managed applications concurrently on one shared
// generated grid and prints a per-app comparison table — the grid-scale
// version of cmd/archadapt's single-application evaluation.
//
// Usage:
//
//	fleet [-apps N] [-mode both|control|adaptive|migrate] [-seed N]
//	      [-duration S] [-routers N] [-hosts-per-router N] [-spare-routers N]
//	      [-host-capacity N] [-admit-stagger S] [-admit-waves N] [-retire-after S]
//	      [-crush-start S] [-crush-stagger S] [-crush-duration S]
//	      [-crush-apps N] [-crush-all-groups]
//	      [-backbone-crush S] [-region-fail S] [-region-fail-router N]
//	      [-migration] [-ranked] [-max-concurrent N] [-caching] [-settle S]
//	      [-openloop] [-users N]
//	      [-trace FILE] [-trace-format chrome|jsonl] [-pprof CPU[,HEAP]]
//	fleet -scenario NAME [-mode ...] [any flag above, overriding the entry]
//	fleet -list
//
// With -mode both (the default) it runs the same fleet twice — once as pure
// observers, once with repairs enabled — and prints the per-app comparison.
// With -mode migrate it runs the fleet twice with repairs enabled — once
// pinned (migration disabled) and once with the fleet-level migration
// controller — and prints the pinned-vs-migrating comparison.
//
// -scenario runs a named entry from the scenario catalog (SCENARIOS.md);
// -list prints the catalog. Every shape flag is bound to its
// FleetScenarioOptions field (bind), so a flag you set overrides the entry's
// value and the rest keep it — e.g. `-scenario backbone-rescue -ranked=false`
// runs the avoid-set-only control against the committed ranked entry, and
// `-scenario baseline -crush-stagger 10` the baseline with slower onsets.
//
// -openloop replaces the closed-loop request generators with the open-loop
// heavy-traffic engine: arrival-driven aggregated flow classes carrying
// -users modeled users per application (autoscaling enabled), at a cost
// independent of the population size. With -scenario it overrides the
// entry's open-loop policy — e.g. `-scenario flash-crowd -users 1000000`
// reruns the committed flash crowd at a million users per app. -users alone
// implies -openloop; an explicit -openloop=false wins either way and -users
// is then ignored with a warning.
//
// -trace FILE attaches the deterministic observability plane to the run
// under test (the adaptive run; the migrating run with -mode migrate) and
// exports its causal span timeline — chrome format loads directly into
// chrome://tracing or Perfetto, jsonl is one span per line for scripting.
// -pprof writes a CPU profile (and optionally a heap profile) of the whole
// invocation, for `go tool pprof`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"archadapt"
)

// writeTrace exports tr to path in the requested format.
func writeTrace(tr *archadapt.Tracer, path, format string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		os.Exit(1)
	}
	if format == "jsonl" {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: writing trace: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s trace (%d spans) to %s\n", format, tr.Len(), path)
}

// cli is what the command line resolves to: the scenario shape every run
// starts from, plus the flags that select and export runs.
type cli struct {
	base                            archadapt.FleetScenarioOptions
	mode, scenario                  string
	list                            bool
	traceOut, traceFormat, pprofOut string
	// -openloop and -users are resolved against each other after parsing.
	openloop bool
	users    int
}

// bind declares every scenario-shape flag, each bound to its field of o with
// the field's current value as the default: parsing overrides exactly the
// fields whose flags were set, whatever o started as. A new scalar knob is
// its ScenarioOptions field and one line here.
func bind(fs *flag.FlagSet, o *archadapt.FleetScenarioOptions) {
	fs.IntVar(&o.Apps, "apps", o.Apps, "number of applications to admit")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "fleet seed (drives every stochastic stream)")
	fs.Float64Var(&o.Duration, "duration", o.Duration, "run duration in simulated seconds")
	fs.IntVar(&o.Routers, "routers", o.Routers, "backbone routers (0 = auto-size for -apps)")
	fs.IntVar(&o.HostsPerRouter, "hosts-per-router", o.HostsPerRouter, "hosts per router (0 = auto)")
	fs.IntVar(&o.SpareRouters, "spare-routers", o.SpareRouters, "extra routers beyond the auto-sized minimum (migration headroom)")
	fs.IntVar(&o.HostCapacity, "host-capacity", o.HostCapacity, "process slots per host")
	fs.Float64Var(&o.AdmitStagger, "admit-stagger", o.AdmitStagger, "seconds between admissions")
	fs.IntVar(&o.AdmitWaves, "admit-waves", o.AdmitWaves, "spread admissions into N diurnal waves")
	fs.Float64Var(&o.RetireAfter, "retire-after", o.RetireAfter, "retire each app this long after admission (0 = never)")
	fs.Float64Var(&o.CrushStart, "crush-start", o.CrushStart, "first contention onset (<0 disables)")
	fs.Float64Var(&o.CrushStagger, "crush-stagger", o.CrushStagger, "seconds between per-app contention onsets")
	fs.Float64Var(&o.CrushDuration, "crush-duration", o.CrushDuration, "contention duration per app")
	fs.IntVar(&o.CrushApps, "crush-apps", o.CrushApps, "crush only the first N apps (0 = all)")
	fs.BoolVar(&o.CrushAllGroups, "crush-all-groups", o.CrushAllGroups, "crush every group's servers, not just the primary's")
	fs.Float64Var(&o.BackboneCrushStart, "backbone-crush", o.BackboneCrushStart, "start correlated backbone contention at this time (0 disables)")
	fs.Float64Var(&o.RegionFailStart, "region-fail", o.RegionFailStart, "fail one router's region at this time (0 disables)")
	fs.IntVar(&o.RegionFailRouter, "region-fail-router", o.RegionFailRouter, "router index for -region-fail")
	fs.BoolVar(&o.Migration.Enabled, "migration", o.Migration.Enabled, "enable the fleet-level migration controller")
	fs.BoolVar(&o.Migration.Ranked, "ranked", o.Migration.Ranked, "measurement-driven migration targeting (region health index + PlaceRanked)")
	fs.IntVar(&o.Migration.MaxConcurrent, "max-concurrent", o.Migration.MaxConcurrent, "cap on concurrently draining migrations (0 = policy default)")
	fs.BoolVar(&o.Manager.GaugeCaching, "caching", o.Manager.GaugeCaching, "enable gauge caching (§5.3 extension)")
	fs.Float64Var(&o.Manager.SettleTime, "settle", o.Manager.SettleTime, "repair settle time in seconds")
}

// cliDefaults is the shape a command line without -scenario starts from.
// RegionFailRouter is read only once -region-fail sets a start time.
var cliDefaults = archadapt.FleetScenarioOptions{
	Apps: 32, Seed: 1, Duration: 600, HostCapacity: 1,
	CrushStart: 120, CrushStagger: 5, CrushDuration: 240,
	RegionFailRouter: 1,
}

// parseOver parses args into a cli whose shape flags are bound over base, and
// reports which flags were set.
func parseOver(base archadapt.FleetScenarioOptions, args []string, stderr io.Writer) (*cli, map[string]bool, error) {
	c := &cli{base: base}
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bind(fs, &c.base)
	fs.StringVar(&c.mode, "mode", "both", "control | adaptive | both | migrate")
	fs.BoolVar(&c.openloop, "openloop", false, "drive apps with the open-loop heavy-traffic engine (autoscaling enabled)")
	fs.IntVar(&c.users, "users", 0, "modeled users per app; implies -openloop unless -openloop=false (0 = one per client)")
	fs.StringVar(&c.scenario, "scenario", "", "run a named scenario from the catalog (see -list); flags you set override the entry")
	fs.BoolVar(&c.list, "list", false, "print the scenario catalog and exit")
	fs.StringVar(&c.traceOut, "trace", "", "trace the run under test and write its timeline to this file")
	fs.StringVar(&c.traceFormat, "trace-format", "chrome", "trace export format: chrome | jsonl")
	fs.StringVar(&c.pprofOut, "pprof", "", "write a CPU profile to the first path (and a heap profile to an optional second, comma-separated)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return c, set, nil
}

// parseArgs maps the command line onto a cli. Diagnostics — parse errors and
// "has no effect" warnings — go to stderr; a non-nil error means exit 2
// (flag.ErrHelp: usage was asked for).
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	c, set, err := parseOver(cliDefaults, args, stderr)
	if err != nil {
		return nil, err
	}
	if c.list {
		return c, nil
	}
	fail := func(format string, a ...any) (*cli, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return nil, err
	}
	switch c.mode {
	case "control", "adaptive", "both", "migrate":
	default:
		return fail("unknown -mode %q (want control|adaptive|both|migrate)", c.mode)
	}
	switch c.traceFormat {
	case "chrome", "jsonl":
	default:
		return fail("unknown -trace-format %q (want chrome|jsonl)", c.traceFormat)
	}
	if c.scenario != "" {
		entry, err := archadapt.FleetScenarioByName(c.scenario)
		if err != nil {
			return fail("%v (try -list)", err)
		}
		// The same command line again, over the entry instead of the CLI
		// defaults: every flag that was set overrides the entry's value.
		if c, set, err = parseOver(entry.Opts, args, io.Discard); err != nil {
			return nil, err
		}
	} else if c.base.Migration.Ranked {
		// Without an entry to say otherwise, -ranked implies -migration.
		c.base.Migration.Enabled = true
	}
	base := &c.base
	// The open-loop engine, with or without -scenario: an explicit
	// -openloop=false wins; otherwise -openloop or a -users population turns
	// the engine (and its autoscaler) on.
	switch {
	case set["openloop"] && !c.openloop:
		base.OpenLoop.Enabled = false
		if set["users"] {
			fmt.Fprintf(stderr, "fleet: -users has no effect together with -openloop=false\n")
		}
	case set["openloop"] || set["users"]:
		base.OpenLoop.Enabled = true
		base.OpenLoop.Scale.Enabled = true
		if set["users"] {
			base.OpenLoop.Users = c.users
		}
	}
	// -mode migrate enables migration itself for the second run.
	if p := base.Migration; !p.Enabled && c.mode != "migrate" &&
		(set["ranked"] && p.Ranked || set["max-concurrent"] && p.MaxConcurrent != 0) {
		fmt.Fprintf(stderr, "fleet: -ranked/-max-concurrent have no effect while migration is disabled (add -migration, -mode migrate, or a migration-enabled scenario)\n")
	}
	return c, nil
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	os.Exit(execute(c, os.Stdout, os.Stderr))
}

// execute performs the runs a command line resolved to and returns the exit
// status. The tables go to stdout and are a function of the options alone;
// everything that may differ between two invocations — progress, host
// timings, trace and profile notices — goes to stderr.
func execute(c *cli, stdout, stderr io.Writer) int {
	if c.list {
		for _, e := range archadapt.FleetCatalog() {
			fmt.Fprintf(stdout, "%-16s %s\n%16s expect: %s\n", e.Name, e.Stresses, "", e.Expect)
		}
		return 0
	}
	if c.pprofOut != "" {
		paths := strings.SplitN(c.pprofOut, ",", 2)
		cf, err := os.Create(paths[0])
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
			if len(paths) == 2 && paths[1] != "" {
				hf, err := os.Create(paths[1])
				if err != nil {
					fmt.Fprintf(stderr, "fleet: %v\n", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(hf); err != nil {
					fmt.Fprintf(stderr, "fleet: heap profile: %v\n", err)
				}
				hf.Close()
			}
		}()
	}
	base, mode := c.base, c.mode

	// run performs one fleet run and reports it on stderr; nil after a
	// failure it has already reported.
	run := func(kind string, adaptive, migrating, traced bool) *archadapt.FleetScenarioResult {
		opts := base
		opts.Adaptive = adaptive
		opts.Migration.Enabled = migrating
		opts.Trace = traced && c.traceOut != ""
		t0 := time.Now()
		started, err := archadapt.StartFleetScenario(opts)
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %s run: %v\n", kind, err)
			return nil
		}
		setup := time.Since(t0)
		res := started.Finish()
		fmt.Fprintf(stderr, "ran %s fleet: %s, %d apps admitted, %d rejected, set-up %.3fs, run %.3fs\n",
			kind, res.Grid, len(res.Summaries), len(res.Fleet.Rejections()),
			setup.Seconds(), (time.Since(t0) - setup).Seconds())
		for _, rej := range res.Fleet.Rejections() {
			fmt.Fprintf(stderr, "  rejected %s at t=%.0f: %v\n", rej.Name, rej.Time, rej.Err)
		}
		if led, ok := res.Fleet.OpenLoopLedger(); ok && led != (archadapt.FleetAdmissionLedger{}) {
			fmt.Fprintf(stderr, "  open-loop admission: offered %d admitted %d shed %d queued %d (active %d, retired %d)\n",
				led.Offered, led.Admitted, led.Shed, led.Queued, led.Active, led.Retired)
		}
		var ups, downs int
		for _, s := range res.Summaries {
			ups += s.ScaleUps
			downs += s.ScaleDowns
		}
		if ups+downs > 0 {
			fmt.Fprintf(stderr, "  autoscaler: %d scale-ups, %d scale-downs\n", ups, downs)
		}
		for _, name := range res.Fleet.Apps() {
			for _, m := range res.Fleet.App(name).Migrations {
				switch {
				case m.Err != nil:
					fmt.Fprintf(stderr, "  %s migration at t=%.0f failed: %v\n", name, m.DecidedAt, m.Err)
				case !m.Completed():
					fmt.Fprintf(stderr, "  %s migration at t=%.0f aborted\n", name, m.DecidedAt)
				default:
					fmt.Fprintf(stderr, "  %s migrated t=%.0f→%.0f (drained=%v)\n",
						name, m.DecidedAt, m.CompletedAt, m.Drained)
				}
			}
		}
		if opts.Trace {
			writeTrace(res.Fleet.Tracer(), c.traceOut, c.traceFormat)
		}
		return res
	}

	if mode == "migrate" {
		pinned := run("pinned", true, false, false)
		if pinned == nil {
			return 1
		}
		migrating := run("migrating", true, true, true)
		if migrating == nil {
			return 1
		}
		fmt.Fprintln(stdout, "=== pinned fleet (migration disabled) ===")
		fmt.Fprint(stdout, pinned.Table())
		fmt.Fprintln(stdout, "=== migrating fleet ===")
		fmt.Fprint(stdout, migrating.Table())
		fmt.Fprintln(stdout, "=== per-app pinned vs migrating ===")
		fmt.Fprint(stdout, archadapt.FleetCompareTable(pinned.Summaries, migrating.Summaries))
		return 0
	}

	migrating := base.Migration.Enabled
	var control, adaptive *archadapt.FleetScenarioResult
	if mode == "control" || mode == "both" {
		if control = run("control", false, migrating, mode == "control"); control == nil {
			return 1
		}
	}
	if mode == "adaptive" || mode == "both" {
		if adaptive = run("adaptive", true, migrating, true); adaptive == nil {
			return 1
		}
	}

	if control != nil && (mode == "control" || adaptive == nil) {
		fmt.Fprintln(stdout, "=== control fleet ===")
		fmt.Fprint(stdout, control.Table())
	}
	if adaptive != nil {
		fmt.Fprintln(stdout, "=== adaptive fleet ===")
		fmt.Fprint(stdout, adaptive.Table())
	}
	if control != nil && adaptive != nil {
		fmt.Fprintln(stdout, "=== per-app control vs adaptive ===")
		fmt.Fprint(stdout, archadapt.FleetCompareTable(control.Summaries, adaptive.Summaries))
	}
	return 0
}
