// Command benchjson runs the substrate and fleet benchmarks and writes a
// machine-readable perf baseline (BENCH_fleet.json by default), so successive
// PRs can track ms/app, repairs/app and allocation counts without parsing
// `go test -bench` text output. scripts/bench.sh wraps it; CI runs it in
// -quick mode as a smoke test.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"archadapt/internal/benchfix"
	"archadapt/internal/fleet"
)

// Baseline is the file schema. Fields are stable: future PRs append runs by
// regenerating the file and comparing against the committed one.
type Baseline struct {
	GeneratedAt string     `json:"generated_at"`
	GoVersion   string     `json:"go_version"`
	Reflow      MicroBench `json:"reflow"`
	// KernelHold mirrors BenchmarkKernelHold (internal/sim): pop one event,
	// push one, at a fixed number pending, under Exp(1) delays and (name
	// "fleet-mix") the fleet's delays and reschedules. TransferCycle mirrors
	// BenchmarkTransferCycle (internal/netsim): one warm fire-and-forget
	// reply transfer. Both are the run phase's per-event path in isolation
	// and must not allocate — -check enforces it on fresh runs. CheckAll
	// mirrors BenchmarkCheckAll (internal/constraint): one warm control-loop
	// check of a 64-client model, held to the same rule.
	KernelHold    []MicroBench `json:"kernel_hold"`
	TransferCycle MicroBench   `json:"transfer_cycle"`
	CheckAll      []MicroBench `json:"check_all"`
	Fleet         []FleetRow   `json:"fleet"`
	// FleetMigration mirrors BenchmarkFleetMigration: the canonical
	// region-collapse + migration fixture (fleet.MigrationBenchScenario).
	FleetMigration []FleetRow `json:"fleet_migration"`
	// FleetRankedMigration mirrors BenchmarkFleetRankedMigration: the same
	// fixture with measurement-driven targeting (region health index +
	// PlaceRanked, fleet.RankedMigrationBenchScenario).
	FleetRankedMigration []FleetRow `json:"fleet_ranked_migration"`
	// FleetOpenLoop mirrors BenchmarkFleetOpenLoop: the open-loop fixture
	// (fleet.OpenLoopBenchScenario) at a fixed app count over population
	// sizes. Each app offers a constant 8 req/s aggregate regardless of
	// users, so ms_per_app must not scale with the population and
	// responses_per_app must be identical down the sweep — -check enforces
	// both.
	FleetOpenLoop []FleetRow `json:"fleet_openloop"`
}

// MicroBench is one substrate benchmark row. The reflow row mirrors
// BenchmarkMaxMinReflow: one background change against 100 concurrent flows
// on a 10-host star.
type MicroBench struct {
	// Pending is set only on kernel_hold rows (the queue length held), Name
	// on check_all rows (the variant) and the fleet-mix kernel_hold rows.
	Pending     int    `json:"pending,omitempty"`
	Name        string `json:"name,omitempty"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// FleetRow mirrors one BenchmarkFleet/N=<n> size point.
type FleetRow struct {
	Apps          int     `json:"apps"`
	MsPerApp      float64 `json:"ms_per_app"`
	RepairsPerApp float64 `json:"repairs_per_app"`
	AllocsPerApp  float64 `json:"allocs_per_app"`
	MBPerApp      float64 `json:"mb_per_app"`
	// RouteWalksPerApp is the route walks per app (netsim RouteStats.Walks)
	// of the first, seed-1 iteration alone, so -check's single seed-1 run
	// reproduces the committed figure exactly however many iterations the
	// sweep timed. -check gates it on the fleet rows.
	RouteWalksPerApp float64 `json:"route_walks_per_app"`
	// MigrationsPerApp is set only on migration-fixture rows. Like
	// repairs_per_app it is a deterministic behavior canary.
	MigrationsPerApp float64 `json:"migrations_per_app,omitempty"`
	// Users and ResponsesPerApp are set only on fleet_openloop rows: the
	// modeled population per app and the deterministic synthetic-response
	// canary (population-independent by construction).
	Users           int     `json:"users,omitempty"`
	ResponsesPerApp float64 `json:"responses_per_app,omitempty"`
}

// micro times run (set-up included; it resets the timer itself) under the
// testing package's benchmark driver.
func micro(run func(b *testing.B)) MicroBench {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		run(b)
	})
	return MicroBench{
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

func benchReflow() MicroBench {
	return micro(func(b *testing.B) {
		op := benchfix.ReflowStar()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(i)
		}
	})
}

func benchKernelHold(mix string, pending int) MicroBench {
	row := micro(func(b *testing.B) {
		op := benchfix.KernelHold(mix, pending)
		b.ResetTimer()
		op(b.N)
	})
	row.Name, row.Pending = mix, pending
	return row
}

// eachHold runs every kernel-hold row: each delay mix at each queue length.
func eachHold(visit func(row MicroBench)) {
	for _, mix := range benchfix.HoldMixes {
		for _, pending := range benchfix.HoldPendings {
			visit(benchKernelHold(mix, pending))
		}
	}
}

func benchTransferCycle() MicroBench {
	return micro(func(b *testing.B) {
		op := benchfix.TransferCycle()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
}

func benchCheckAll(name string, changed int) MicroBench {
	row := micro(func(b *testing.B) {
		op := benchfix.CheckAll(changed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(i)
		}
	})
	row.Name = name
	return row
}

func benchFleet(n, iters int) (FleetRow, error) {
	return benchScenario(n, iters, func(i int) fleet.ScenarioOptions {
		return fleet.ScenarioOptions{
			Apps: n, Seed: uint64(i + 1), Duration: 600, Adaptive: true,
			CrushStart: 120, CrushStagger: 5, CrushDuration: 240,
		}
	})
}

// bestFleet is -check's fleet row: the seed-1 iteration, run three times, with
// the least ms/app of the three. Wall-clock on a shared host only ever errs
// upward, and the growth gate divides one such reading by another; everything
// else in the row is deterministic and read from the first run.
func bestFleet(n int) (FleetRow, error) {
	row, err := benchFleet(n, 1)
	for i := 1; i < 3 && err == nil; i++ {
		var again FleetRow
		again, err = benchFleet(n, 1)
		row.MsPerApp = min(row.MsPerApp, again.MsPerApp)
	}
	return row, err
}

// benchMigration measures the canonical migration fixture (shared with
// BenchmarkFleetMigration).
func benchMigration(n, iters int) (FleetRow, error) {
	return benchScenario(n, iters, func(i int) fleet.ScenarioOptions {
		return fleet.MigrationBenchScenario(n, uint64(i+1))
	})
}

// benchRankedMigration measures the measurement-driven variant (shared
// with BenchmarkFleetRankedMigration).
func benchRankedMigration(n, iters int) (FleetRow, error) {
	return benchScenario(n, iters, func(i int) fleet.ScenarioOptions {
		return fleet.RankedMigrationBenchScenario(n, uint64(i+1))
	})
}

// benchOpenLoop measures the open-loop fixture (shared with
// BenchmarkFleetOpenLoop) at one population size.
func benchOpenLoop(n, users, iters int) (FleetRow, error) {
	row, err := benchScenario(n, iters, func(i int) fleet.ScenarioOptions {
		return fleet.OpenLoopBenchScenario(n, users, uint64(i+1))
	})
	row.Users = users
	return row, err
}

func benchScenario(n, iters int, opts func(i int) fleet.ScenarioOptions) (FleetRow, error) {
	row := FleetRow{Apps: n}
	var repairs, migrations int
	var responses uint64
	var ms runtimeMem
	ms.start()
	begin := time.Now()
	for i := 0; i < iters; i++ {
		res, err := fleet.RunScenario(opts(i))
		if err != nil {
			return row, err
		}
		if got := len(res.Summaries); got != n {
			return row, fmt.Errorf("admitted %d apps, want %d", got, n)
		}
		for _, s := range res.Summaries {
			repairs += s.Repairs
			migrations += s.Migrations
			responses += s.Responses
		}
		if i == 0 {
			row.RouteWalksPerApp = float64(res.Grid.Net.RouteStats().Walks) / float64(n)
		}
	}
	elapsed := time.Since(begin)
	allocs, bytes := ms.stop()
	den := float64(iters * n)
	row.MsPerApp = float64(elapsed.Microseconds()) / 1e3 / den
	row.RepairsPerApp = float64(repairs) / den
	row.AllocsPerApp = float64(allocs) / den
	row.MBPerApp = float64(bytes) / den / 1e6
	row.MigrationsPerApp = float64(migrations) / den
	if opts(0).OpenLoop.Enabled {
		row.ResponsesPerApp = float64(responses) / den
	}
	return row, nil
}

// runtimeMem snapshots allocation counters around a measured section.
type runtimeMem struct {
	before runtime.MemStats
}

func (m *runtimeMem) start() { runtime.ReadMemStats(&m.before) }

func (m *runtimeMem) stop() (allocs, bytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.Mallocs - m.before.Mallocs, after.TotalAlloc - m.before.TotalAlloc
}

// check compares a fresh N=32 run against the committed baseline and fails
// when allocs/app regressed beyond tolerance — the CI regression gate, with
// allocs/app as the canary (it is deterministic where ms/app is machine-
// dependent) — or when per-app allocation grows with fleet size.
func check(baselinePath string, tolerance float64) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading baseline: %v\n", err)
		os.Exit(1)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing baseline: %v\n", err)
		os.Exit(1)
	}
	var committed *FleetRow
	for i := range base.Fleet {
		if base.Fleet[i].Apps == 32 {
			committed = &base.Fleet[i]
		}
	}
	if committed == nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline has no N=32 row\n")
		os.Exit(1)
	}
	row, err := bestFleet(32)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: fleet N=32: %v\n", err)
		os.Exit(1)
	}
	limit := committed.AllocsPerApp * (1 + tolerance)
	fmt.Fprintf(os.Stderr, "check N=32: allocs/app %.0f (committed %.0f, limit %.0f), ms/app %.3f (committed %.3f)\n",
		row.AllocsPerApp, committed.AllocsPerApp, limit, row.MsPerApp, committed.MsPerApp)
	failed := false
	if row.RouteWalksPerApp != committed.RouteWalksPerApp {
		fmt.Fprintf(os.Stderr, "benchjson: route walks/app %.4f, committed %.4f — the counter is deterministic; placement or routing asks for more (or fewer) routes than it did, investigate before regenerating\n",
			row.RouteWalksPerApp, committed.RouteWalksPerApp)
		failed = true
	}
	if row.AllocsPerApp > limit {
		fmt.Fprintf(os.Stderr, "benchjson: allocs/app regressed >%.0f%% vs %s — rerun scripts/bench.sh and justify the regression\n",
			100*tolerance, baselinePath)
		failed = true
	}
	// Per-event path gates: the event queue and a warm fire-and-forget
	// transfer recycle everything they use, so a fresh run of either that
	// allocates at all is a regression, whatever the committed row says.
	eachHold(func(hold MicroBench) {
		fmt.Fprintf(os.Stderr, "check kernel hold %s pending=%d: %d ns/op, %d allocs/op\n", hold.Name, hold.Pending, hold.NsPerOp, hold.AllocsPerOp)
		if hold.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: the event queue allocates per event (%s pending=%d)\n", hold.Name, hold.Pending)
			failed = true
		}
	})
	cycle := benchTransferCycle()
	fmt.Fprintf(os.Stderr, "check transfer cycle: %d ns/op, %d allocs/op\n", cycle.NsPerOp, cycle.AllocsPerOp)
	if cycle.AllocsPerOp > 0 {
		fmt.Fprintln(os.Stderr, "benchjson: a warm StartTransferArg cycle allocates — flow, hop index, completion event and callback must all be recycled")
		failed = true
	}
	for _, v := range benchfix.CheckAllVariants {
		row := benchCheckAll(v.Name, v.Changed)
		fmt.Fprintf(os.Stderr, "check constraint check-all %s: %d ns/op, %d allocs/op\n", v.Name, row.NsPerOp, row.AllocsPerOp)
		if row.AllocsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: a clean warm CheckAll allocates (%s)\n", v.Name)
			failed = true
		}
	}
	// Growth gate: per-app cost must be flat in fleet size. allocs/app and
	// MB/app are deterministic to within map-growth noise, so one fresh
	// N=128 run is compared with the fresh N=32 run above rather than with
	// a committed number from another machine. ms/app is wall-clock on the
	// same machine, the best of three runs a side, so its limit is looser.
	const growthLimit, msGrowthLimit = 1.25, 1.4
	big, err := bestFleet(128)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: fleet N=128: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "check growth N=32 -> N=128: allocs/app %.0f -> %.0f, MB/app %.3f -> %.3f (limit %.2fx), ms/app %.3f -> %.3f (best of 3, limit %.1fx)\n",
		row.AllocsPerApp, big.AllocsPerApp, row.MBPerApp, big.MBPerApp, growthLimit, row.MsPerApp, big.MsPerApp, msGrowthLimit)
	if big.AllocsPerApp > growthLimit*row.AllocsPerApp || big.MBPerApp > growthLimit*row.MBPerApp {
		fmt.Fprintf(os.Stderr, "benchjson: per-app allocation grows with fleet size (>%.2fx from N=32 to N=128) — something on the admission or monitoring path scales with the grid, not the app\n", growthLimit)
		failed = true
	}
	fmt.Fprintf(os.Stderr, "check growth N=32 -> N=128: route walks/app %.1f -> %.1f (limit %.2fx)\n", row.RouteWalksPerApp, big.RouteWalksPerApp, growthLimit)
	if big.RouteWalksPerApp > growthLimit*row.RouteWalksPerApp {
		fmt.Fprintf(os.Stderr, "benchjson: route walks/app grow with fleet size (>%.2fx from N=32 to N=128) — admission is measuring the grid again, not the candidates its bounds leave in contention\n", growthLimit)
		failed = true
	}
	if big.MsPerApp > msGrowthLimit*row.MsPerApp {
		fmt.Fprintf(os.Stderr, "benchjson: ms/app grows with fleet size (>%.1fx from N=32 to N=128) — set-up or a per-event path scales with the grid, not the app\n", msGrowthLimit)
		failed = true
	}
	// Migration fixtures (unranked and ranked): same allocs/app gate, plus
	// migrations/app as an exact behavior canary (both scenarios are
	// deterministic).
	fixtures := []struct {
		label string
		rows  []FleetRow
		bench func(n, iters int) (FleetRow, error)
	}{
		{"migration", base.FleetMigration, benchMigration},
		{"ranked migration", base.FleetRankedMigration, benchRankedMigration},
	}
	var rankedFresh, rankedCommitted FleetRow
	for _, fx := range fixtures {
		var committed *FleetRow
		for i := range fx.rows {
			if fx.rows[i].Apps == 16 {
				committed = &fx.rows[i]
			}
		}
		if committed == nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline has no %s N=16 row\n", fx.label)
			os.Exit(1)
		}
		row, err := fx.bench(16, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s N=16: %v\n", fx.label, err)
			os.Exit(1)
		}
		if fx.label == "ranked migration" {
			rankedFresh, rankedCommitted = row, *committed
		}
		limit := committed.AllocsPerApp * (1 + tolerance)
		fmt.Fprintf(os.Stderr, "check %s N=16: allocs/app %.0f (committed %.0f, limit %.0f), migrations/app %.4f (committed %.4f)\n",
			fx.label, row.AllocsPerApp, committed.AllocsPerApp, limit, row.MigrationsPerApp, committed.MigrationsPerApp)
		if row.AllocsPerApp > limit {
			fmt.Fprintf(os.Stderr, "benchjson: %s allocs/app regressed >%.0f%% vs %s\n", fx.label, 100*tolerance, baselinePath)
			failed = true
		}
		if row.MigrationsPerApp != committed.MigrationsPerApp {
			fmt.Fprintf(os.Stderr, "benchjson: %s migrations/app drifted from the committed baseline — the scenario is deterministic; investigate before regenerating\n", fx.label)
			failed = true
		}
	}
	// Open-loop gates: the modeled population is pure bookkeeping — one
	// aggregated flow class per (client-region, server-group) pair carries
	// however many users the row models — so every committed fleet_openloop
	// row must report the identical responses/app, a fresh run must
	// reproduce it exactly (the scenario is deterministic), allocs/app is
	// held to the general tolerance, and ms/app must not scale with users:
	// the most expensive fresh row may cost at most twice the cheapest
	// (they are near-equal in practice; 2x absorbs wall-clock noise on
	// same-machine sub-second runs).
	if len(base.FleetOpenLoop) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: baseline has no fleet_openloop rows — regenerate with scripts/bench.sh\n")
		os.Exit(1)
	}
	olResponses := base.FleetOpenLoop[0].ResponsesPerApp
	olMsMin, olMsMax := 0.0, 0.0
	for _, committed := range base.FleetOpenLoop {
		if committed.ResponsesPerApp != olResponses {
			fmt.Fprintf(os.Stderr, "benchjson: committed fleet_openloop rows disagree on responses/app (users=%d: %.4f vs %.4f) — the baseline itself violates population invariance\n",
				committed.Users, committed.ResponsesPerApp, olResponses)
			failed = true
			continue
		}
		fresh, err := benchOpenLoop(committed.Apps, committed.Users, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: openloop N=%d users=%d: %v\n", committed.Apps, committed.Users, err)
			os.Exit(1)
		}
		limit := committed.AllocsPerApp * (1 + tolerance)
		fmt.Fprintf(os.Stderr, "check openloop N=%d users=%d: responses/app %.4f (committed %.4f), allocs/app %.0f (limit %.0f), ms/app %.3f\n",
			committed.Apps, committed.Users, fresh.ResponsesPerApp, committed.ResponsesPerApp, fresh.AllocsPerApp, limit, fresh.MsPerApp)
		if fresh.ResponsesPerApp != committed.ResponsesPerApp {
			fmt.Fprintf(os.Stderr, "benchjson: openloop users=%d responses/app drifted from the committed baseline — the scenario is deterministic; investigate before regenerating\n",
				committed.Users)
			failed = true
		}
		if fresh.AllocsPerApp > limit {
			fmt.Fprintf(os.Stderr, "benchjson: openloop users=%d allocs/app regressed >%.0f%% vs %s\n",
				committed.Users, 100*tolerance, baselinePath)
			failed = true
		}
		if olMsMin == 0 || fresh.MsPerApp < olMsMin {
			olMsMin = fresh.MsPerApp
		}
		if fresh.MsPerApp > olMsMax {
			olMsMax = fresh.MsPerApp
		}
	}
	if olMsMin > 0 && olMsMax > 2*olMsMin {
		fmt.Fprintf(os.Stderr, "benchjson: openloop ms/app scales with the modeled population (%.3f vs %.3f, >2x) — aggregation must keep cost population-independent\n",
			olMsMax, olMsMin)
		failed = true
	}

	// Observability-plane gates against the ranked fixture:
	//
	//  1. trace-off overhead: with tracing disabled the plane must cost
	//     nothing — the fresh trace-off run above is held to a much tighter
	//     allocs/app tolerance than the general gate, because the committed
	//     row predates the plane entirely. ms/app is reported for context but
	//     not gated (machine-dependent).
	//  2. traced behavior canary: a traced run of the same fixture must make
	//     exactly the committed migration decisions — the tracer observes the
	//     control loop, it never steers it.
	const traceOffTolerance = 0.02
	traceLimit := rankedCommitted.AllocsPerApp * (1 + traceOffTolerance)
	fmt.Fprintf(os.Stderr, "check trace-off N=16: allocs/app %.0f (committed %.0f, limit %.0f), ms/app %.3f (committed %.3f)\n",
		rankedFresh.AllocsPerApp, rankedCommitted.AllocsPerApp, traceLimit, rankedFresh.MsPerApp, rankedCommitted.MsPerApp)
	if rankedFresh.AllocsPerApp > traceLimit {
		fmt.Fprintf(os.Stderr, "benchjson: disabled tracing costs allocations (>%.0f%% over the pre-plane baseline) — the off path must stay free\n",
			100*traceOffTolerance)
		failed = true
	}
	traced, err := benchScenario(16, 1, func(i int) fleet.ScenarioOptions {
		o := fleet.RankedMigrationBenchScenario(16, uint64(i+1))
		o.Trace = true
		return o
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: traced ranked migration N=16: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "check traced N=16: migrations/app %.4f (committed %.4f), allocs/app %.0f\n",
		traced.MigrationsPerApp, rankedCommitted.MigrationsPerApp, traced.AllocsPerApp)
	if traced.MigrationsPerApp != rankedCommitted.MigrationsPerApp {
		fmt.Fprintln(os.Stderr, "benchjson: tracing changed migration behavior — the tracer must only observe")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "check passed")
}

func main() {
	out := flag.String("out", "BENCH_fleet.json", "output file ('-' for stdout)")
	quick := flag.Bool("quick", false, "smoke mode: N=4 only, one iteration")
	iters := flag.Int("iters", 3, "fleet scenario iterations per size point")
	checkPath := flag.String("check", "", "run the kernel-hold, transfer-cycle and check-all micro-benchmarks and compare fresh fleet N=32 and N=128, (ranked) migration N=16 and open-loop population-sweep runs against this committed baseline; exit non-zero if a micro-benchmark allocates, allocs/app regressed >20%, route walks/app at N=32 drifted, allocs/app, MB/app or route walks/app grow >1.25x or ms/app (best of three runs a side) >1.4x from N=32 to N=128, migrations/app or responses/app drifted, open-loop ms/app scales with users, disabled tracing costs >2% allocs, or tracing changes behavior")
	flag.Parse()

	if *checkPath != "" {
		check(*checkPath, 0.20)
		return
	}

	sizes := []int{4, 16, 32, 64, 128, 256, 1024}
	if *quick {
		sizes = []int{4}
		// Unless the user explicitly asked otherwise, drop to one iteration
		// and write to stdout: a quick run is a truncated (N=4-only) sweep
		// and must not silently replace the committed full baseline.
		explicitIters, explicitOut := false, false
		flag.Visit(func(f *flag.Flag) {
			explicitIters = explicitIters || f.Name == "iters"
			explicitOut = explicitOut || f.Name == "out"
		})
		if !explicitIters {
			*iters = 1
		}
		if !explicitOut {
			*out = "-"
		}
	}

	base := Baseline{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Reflow:      benchReflow(),
	}
	eachHold(func(row MicroBench) {
		fmt.Fprintf(os.Stderr, "kernel hold %-9s pending=%-6d %5d ns/op  %d allocs/op\n", row.Name, row.Pending, row.NsPerOp, row.AllocsPerOp)
		base.KernelHold = append(base.KernelHold, row)
	})
	base.TransferCycle = benchTransferCycle()
	fmt.Fprintf(os.Stderr, "transfer cycle %5d ns/op  %d allocs/op\n", base.TransferCycle.NsPerOp, base.TransferCycle.AllocsPerOp)
	for _, v := range benchfix.CheckAllVariants {
		row := benchCheckAll(v.Name, v.Changed)
		fmt.Fprintf(os.Stderr, "check-all %-17s %5d ns/op  %d allocs/op\n", v.Name, row.NsPerOp, row.AllocsPerOp)
		base.CheckAll = append(base.CheckAll, row)
	}
	for _, n := range sizes {
		it := *iters
		if n >= 1024 {
			it = 1 // ~20 s a run; the row is there for the curve's far end
		}
		row, err := benchFleet(n, it)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: fleet N=%d: %v\n", n, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fleet N=%-4d %7.3f ms/app  %5.2f repairs/app  %10.0f allocs/app  %6.3f MB/app  %6.1f route walks/app\n",
			n, row.MsPerApp, row.RepairsPerApp, row.AllocsPerApp, row.MBPerApp, row.RouteWalksPerApp)
		base.Fleet = append(base.Fleet, row)
	}
	migSizes := []int{16}
	if *quick {
		migSizes = []int{4}
	}
	migFixtures := []struct {
		label string
		bench func(n, iters int) (FleetRow, error)
		dst   *[]FleetRow
	}{
		{"migration", benchMigration, &base.FleetMigration},
		{"ranked migration", benchRankedMigration, &base.FleetRankedMigration},
	}
	for _, fx := range migFixtures {
		for _, n := range migSizes {
			// Always one iteration (seed 1): migrations_per_app is gated with
			// exact equality by -check, which also runs one seed-1 iteration,
			// so generation and check must sample the identical deterministic
			// run.
			row, err := fx.bench(n, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s N=%d: %v\n", fx.label, n, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "%s N=%-3d %7.3f ms/app  %5.2f migrations/app  %10.0f allocs/app\n",
				fx.label, n, row.MsPerApp, row.MigrationsPerApp, row.AllocsPerApp)
			*fx.dst = append(*fx.dst, row)
		}
	}
	// Open-loop population sweep: one seed-1 iteration per size, because
	// responses_per_app is exactly gated by -check (and ms_per_app must not
	// scale with users).
	olN := 64
	if *quick {
		olN = 4
	}
	for _, users := range []int{10_000, 1_000_000} {
		row, err := benchOpenLoop(olN, users, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: openloop N=%d users=%d: %v\n", olN, users, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "openloop N=%-3d users=%-7d %7.3f ms/app  %5.0f responses/app  %10.0f allocs/app\n",
			olN, users, row.MsPerApp, row.ResponsesPerApp, row.AllocsPerApp)
		base.FleetOpenLoop = append(base.FleetOpenLoop, row)
	}

	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (reflow %d ns/op, %d allocs/op)\n",
		*out, base.Reflow.NsPerOp, base.Reflow.AllocsPerOp)
}
