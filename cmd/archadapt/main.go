// Command archadapt runs the paper's evaluation (§5) and regenerates its
// figures.
//
// Usage:
//
//	archadapt [-mode both|control|adaptive] [-fig N] [-csv] [-seed N]
//	          [-caching] [-qos] [-cold-remos] [-settle S] [-smart]
//	          [-oscillate] [-duration S]
//
// With -fig 0 (default) it prints run summaries and the comparison table;
// with -fig N it prints the requested figure (7–13) as an ASCII plot or CSV.
// A flag value it cannot honour — an unknown mode or figure, a figure whose
// run -mode leaves out, a negative or non-finite time — is a one-line error
// and exit status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"archadapt"
)

// cli is what the command line resolves to.
type cli struct {
	mode string
	fig  archadapt.Figure
	csv  bool
	base archadapt.ExperimentOptions
}

// parseArgs maps the command line onto a cli. Diagnostics go to stderr; a
// non-nil error means exit 2 (flag.ErrHelp: usage was asked for).
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	c := &cli{}
	cfg := &c.base.Cfg
	fs := flag.NewFlagSet("archadapt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.mode, "mode", "both", "control | adaptive | both")
	fig := fs.Int("fig", 0, "figure to regenerate (7-13); 0 = summaries")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of ASCII plots")
	fs.Uint64Var(&c.base.Seed, "seed", 1, "experiment seed")
	fs.BoolVar(&cfg.GaugeCaching, "caching", false, "enable gauge caching (§5.3 extension)")
	qos := fs.Bool("qos", false, "prioritize monitoring traffic (§5.3 extension)")
	fs.BoolVar(&cfg.SkipRemosPrequery, "cold-remos", false, "skip Remos pre-querying (exposes cold-query lag)")
	fs.Float64Var(&cfg.SettleTime, "settle", 0, "repair settle time in seconds (§5.3 extension)")
	fs.BoolVar(&cfg.SmartSelection, "smart", false, "worst-latency-first repair selection (§7 extension)")
	fs.BoolVar(&c.base.Oscillate, "oscillate", false, "alternating-competition oscillation scenario")
	fs.Float64Var(&c.base.Duration, "duration", 0, "run duration in seconds (default 1800)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *qos {
		cfg.MonitoringPriority = archadapt.Prioritized
	}
	c.fig = archadapt.Figure(*fig)

	fail := func(format string, a ...any) (*cli, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "archadapt: %v\n", err)
		return nil, err
	}
	switch c.mode {
	case "control", "adaptive", "both":
	default:
		return fail("unknown -mode %q (want control|adaptive|both)", c.mode)
	}
	if *fig != 0 && (*fig < 7 || *fig > 13) {
		return fail("unknown -fig %d (want 7-13, or 0 for the summaries)", *fig)
	}
	// Figure 7 is the workload and draws on no run.
	if *fig > 7 && c.mode != "both" {
		need := "control"
		if c.fig.Adaptive() {
			need = "adaptive"
		}
		if c.mode != need {
			return fail("figure %d needs the %s run (-mode %s or both)", *fig, need, need)
		}
	}
	for _, t := range []struct {
		flag string
		v    float64
	}{{"duration", c.base.Duration}, {"settle", cfg.SettleTime}} {
		if math.IsNaN(t.v) || math.IsInf(t.v, 0) || t.v < 0 {
			return fail("-%s %v: want a finite number of seconds >= 0", t.flag, t.v)
		}
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
	execute(c, os.Stdout, os.Stderr)
}

// execute performs the runs a command line resolved to. What it prints on
// stdout is a function of the options alone; progress goes to stderr.
func execute(c *cli, stdout, stderr io.Writer) {
	var control, adaptive *archadapt.ExperimentResults
	if c.mode == "control" || c.mode == "both" {
		fmt.Fprintln(stderr, "running control (1800 simulated seconds)...")
		control = archadapt.RunExperiment(c.base)
	}
	if c.mode == "adaptive" || c.mode == "both" {
		fmt.Fprintln(stderr, "running adaptive (1800 simulated seconds)...")
		opts := c.base
		opts.Adaptive = true
		adaptive = archadapt.RunExperiment(opts)
	}

	if c.fig != 0 {
		res := control
		if c.fig.Adaptive() || control == nil {
			res = adaptive
		}
		if c.csv {
			fmt.Fprintln(stdout, "#", c.fig.Title())
			fmt.Fprint(stdout, archadapt.FigureCSV(c.fig, res))
			return
		}
		fmt.Fprint(stdout, archadapt.RenderFigure(c.fig, res))
		return
	}

	if control != nil {
		fmt.Fprintln(stdout, control.Summarize())
	}
	if adaptive != nil {
		fmt.Fprintln(stdout, adaptive.Summarize())
	}
	if control != nil && adaptive != nil {
		fmt.Fprintln(stdout, "=== control vs adaptive ===")
		fmt.Fprint(stdout, archadapt.CompareRuns(control, adaptive))
	}
}
