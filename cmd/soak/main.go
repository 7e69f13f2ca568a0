// Command soak drives the seeded chaos engine (internal/chaos): each seed
// becomes a random-but-deterministic fleet scenario — grid shape, app mix,
// admission churn, and a fault schedule composing the injectors into
// overlapping, repeated, restore-racing sequences — executed in both pinned
// and migrate modes under the six standing invariants (same-seed
// determinism, slot/reservation ledger audits, netsim solver-vs-oracle
// equivalence, ranked-targeting sanity, no stuck drains and, on seeds that
// enable the open-loop engine, a balanced admission ledger with autoscaled
// replicas inside the policy cap).
//
// Usage:
//
//	soak [-seeds START:END] [-v]          bounded CI mode (default 0:64)
//	soak -duration 10m [-seeds START:]    long local mode: seeds from START
//	                                      until the wall clock expires
//
// On the first failing seed, soak prints every violation, shrinks the
// scenario to a minimal reproducer (ddmin over the fault schedule, then the
// scalar knobs; disable with -shrink=false, tune with -shrink-budget), emits
// it as a ready-to-paste fleet.ScenarioOptions literal, and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"archadapt/internal/chaos"
	"archadapt/internal/fleet"
)

func main() {
	seeds := flag.String("seeds", "0:64", "half-open seed range START:END (END ignored with -duration)")
	duration := flag.Duration("duration", 0, "run until this much wall time has elapsed instead of a fixed range")
	shrink := flag.Bool("shrink", true, "on failure, shrink to a minimal reproducer before reporting")
	budget := flag.Int("shrink-budget", 120, "max candidate executions the shrinker may spend")
	verbose := flag.Bool("v", false, "print each seed as it passes")
	flag.Parse()

	start, end, err := parseRange(*seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(2)
	}

	t0 := time.Now()
	checked := 0
	for seed := start; ; seed++ {
		if *duration > 0 {
			if time.Since(t0) >= *duration {
				break
			}
		} else if seed >= end {
			break
		}
		vs := chaos.CheckSeed(seed)
		checked++
		if len(vs) > 0 {
			report(vs, *shrink, *budget)
			os.Exit(1)
		}
		if *verbose {
			fmt.Printf("seed %d: clean\n", seed)
		}
	}
	fmt.Printf("soak: %d seeds clean in %.1fs (pinned + migrate, each run twice)\n",
		checked, time.Since(t0).Seconds())
}

// report prints every violation for the failing seed, then shrinks the
// first failing (seed, mode) run to a minimal reproducer and emits it as a
// ScenarioOptions literal with a re-check hint.
func report(vs []chaos.Violation, shrink bool, budget int) {
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "FAIL %s\n", v)
	}
	v := vs[0]
	opts := chaos.Generate(v.Seed)
	if v.Mode == chaos.ModeMigrate {
		opts.Migration = chaos.MigratePolicy(v.Seed)
	}
	if shrink {
		inv := v.Invariant
		fails := func(o fleet.ScenarioOptions) bool {
			for _, w := range chaos.Check(o) {
				if w.Invariant == inv {
					return true
				}
			}
			return false
		}
		fmt.Fprintf(os.Stderr, "shrinking seed %d (%s) against the %q invariant (budget %d)...\n",
			v.Seed, v.Mode, inv, budget)
		opts = chaos.Shrink(opts, fails, budget)
	}
	fmt.Fprintf(os.Stderr, "minimal reproducer (re-check with chaos.Check on this literal):\n%s\n",
		fleet.FormatOptions(opts))
}

// parseRange parses "START:END" (half-open); "START:" leaves END at the
// maximum for -duration mode.
func parseRange(s string) (start, end uint64, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-seeds %q: want START:END", s)
	}
	if lo != "" {
		if start, err = strconv.ParseUint(lo, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("-seeds %q: %v", s, err)
		}
	}
	end = ^uint64(0)
	if hi != "" {
		if end, err = strconv.ParseUint(hi, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("-seeds %q: %v", s, err)
		}
	}
	if end <= start {
		return 0, 0, fmt.Errorf("-seeds %q: empty range", s)
	}
	return start, end, nil
}
