// Package benchfix provides shared fixtures for the substrate benchmarks, so
// `go test -bench` (bench_test.go) and cmd/benchjson measure exactly the same
// workload — if the fixture changes, both change together.
package benchfix

import (
	"fmt"
	"math"

	"archadapt/internal/constraint"
	"archadapt/internal/netsim"
	"archadapt/internal/operators"
	"archadapt/internal/sim"
)

// ReflowStar builds the BenchmarkMaxMinReflow fixture — a 10-host star with
// 100 long-lived crossing flows on 10 Mbps access links — and returns the op
// the benchmark loop applies: the i-th background-load mutation on the first
// access link, which re-solves the (single) region those flows share.
func ReflowStar() (op func(i int)) {
	_, net, hosts := star(10)
	for i := 0; i < 100; i++ {
		net.StartTransfer(hosts[i%10], hosts[(i+1)%10], 1e12, "x", nil)
	}
	return func(i int) { net.SetBackgroundBoth(0, float64(i%10)*1e5) }
}

// star builds n hosts on one router with 10 Mbps access links (link i is host
// i's), on a fresh kernel.
func star(n int) (*sim.Kernel, *netsim.Network, []netsim.NodeID) {
	k := sim.NewKernel()
	net := netsim.New(k)
	hosts := make([]netsim.NodeID, n)
	r := net.AddRouter("r")
	for i := range hosts {
		hosts[i] = net.AddHost(string(rune('a' + i)))
		net.Connect(hosts[i], r, 10e6, 1e-3)
	}
	return k, net, hosts
}

// HoldPendings are the queue lengths BenchmarkKernelHold is run at, and
// HoldMixes the delay distributions: the classic Exp(1), and the fleet's.
var (
	HoldPendings = []int{1 << 10, 1 << 12, 1 << 16}
	HoldMixes    = []string{"", FleetMix}
)

// FleetMix names the hold variant that looks like a fleet run's queue traffic.
const FleetMix = "fleet-mix"

// fleetMix is the spread of scheduling delays measured in a 64-app fleet run,
// as the share of pushes per band: six decades, from the one-tick hand-offs of
// the request pipeline to the control loops' multi-second timers. The queue
// contract test in internal/sim keeps its own copy with a longer last band.
var fleetMix = []struct{ share, lo, hi float64 }{
	{0.08, 1e-5, 1e-5}, {0.05, 1e-5, 1e-4}, {0.29, 1e-3, 1e-2}, {0.22, 1e-2, 1e-1},
	{0.18, 0.1, 1}, {0.17, 1, 10}, {0.01, 10, 100},
}

// fleetMixDelay draws one delay from fleetMix, log-uniform within its band.
func fleetMixDelay(rng *sim.Rand) float64 {
	u := rng.Float64()
	for _, m := range fleetMix {
		if u < m.share {
			return m.lo * math.Pow(m.hi/m.lo, rng.Float64())
		}
		u -= m.share
	}
	return 100
}

// KernelHold builds the BenchmarkKernelHold fixture — the classic hold model:
// `pending` events in the queue, each of which, when it fires, schedules its
// successor a random delay ahead — and returns the op that fires exactly
// `events` of them (pop one, push one, queue length constant). It isolates
// the queue's cost per event from anything a callback does. Under mix ""
// delays are Exp(1) and every event anonymous; under FleetMix delays follow
// the fleet's histogram, an eighth of the events carry handles (the flow
// completions) and one of those is rescheduled per eight fires — far more
// often than the fleet does (one per 220 fires at N=64), so that the heap's
// Reschedule path shows in the row.
func KernelHold(mix string, pending int) (op func(events int)) {
	k := sim.NewKernel()
	rng := sim.NewRand(1)
	delay := func() float64 { return rng.Exp(1) }
	var handles []*sim.Event
	if mix == FleetMix {
		// Drawn ahead, so the timed loop pays for the queue and not for Pow.
		drawn, next := make([]float64, 1<<13), 0
		for i := range drawn {
			drawn[i] = fleetMixDelay(rng)
		}
		delay = func() float64 { next++; return drawn[next%len(drawn)] }
		handles = make([]*sim.Event, pending/8)
	}
	left, fires := 0, 0
	fired := func() {
		if fires++; fires%8 == 0 && handles != nil {
			k.Reschedule(handles[rng.Intn(len(handles))], k.Now()+delay())
		}
		if left--; left == 0 {
			k.Stop()
		}
	}
	var hold func(any)
	hold = func(any) {
		k.AfterAnonArg(delay(), hold, nil)
		fired()
	}
	for i := range handles {
		var rearm func()
		rearm = func() {
			handles[i] = k.Reuse(handles[i], k.Now()+delay(), rearm)
			fired()
		}
		handles[i] = k.At(delay(), rearm)
	}
	for i := len(handles); i < pending; i++ {
		k.AfterAnonArg(delay(), hold, nil)
	}
	return func(events int) {
		left = events
		k.Run(math.Inf(1))
	}
}

// TransferCycle builds the BenchmarkTransferCycle fixture — three hosts on one
// router, warmed by one transfer — and returns the op: one fire-and-forget
// reply-sized transfer from start to completion callback, the unit the
// application's reply streaming repeats per request.
func TransferCycle() (op func()) {
	k, net, hosts := star(3)
	i := 0
	op = func() {
		net.StartTransferArg(hosts[i%3], hosts[(i+1)%3], 20*8192, "x", func(any) {}, nil)
		k.RunAll(0)
		i++
	}
	for range hosts {
		op() // one per pair: routes memoised, free lists filled
	}
	return op
}

// CheckAllVariants are the BenchmarkCheckAll rows: how many properties a
// gauge rewrites between two control-loop ticks.
var CheckAllVariants = []struct {
	Name    string
	Changed int
}{{"unchanged", 0}, {"one-prop-changed", 1}}

// CheckAll builds the BenchmarkCheckAll fixture — the 64-client, two-group
// operators.Build model with every property the manager's three invariants
// read set in bounds, checked once — and returns the op: rewrite `changed`
// clients' latency, then CheckAll. The warm check is the control loop's unit
// of work and must not allocate.
func CheckAll(changed int) (op func(i int)) {
	spec := operators.Spec{Name: "bench", MaxLatency: 2, MaxServerLoad: 6, MinBandwidth: 10e3, Groups: []operators.GroupSpec{
		{Name: "SG1", Servers: []string{"S1_1", "S1_2", "S1_3"}, ActiveCount: 2},
		{Name: "SG2", Servers: []string{"S2_1", "S2_2", "S2_3"}, ActiveCount: 2},
	}}
	for c := 1; c <= 64; c++ {
		spec.Clients = append(spec.Clients, operators.ClientSpec{Name: fmt.Sprintf("C%d", c), Group: "SG1"})
	}
	sys, err := operators.Build(spec)
	if err != nil {
		panic(err)
	}
	clients := sys.ComponentsByType(operators.TClient)
	for _, c := range clients {
		c.Props().Set(operators.PropAvgLatency, 1.0)
		_, _, role, _ := operators.GroupOf(sys, c)
		role.Props().Set(operators.PropBandwidth, 5e6)
	}
	reg := constraint.NewRegistry()
	reg.Add(constraint.MustInvariant(operators.InvLatency, operators.TClient, "averageLatency <= maxLatency"))
	reg.Add(constraint.MustInvariant(operators.InvLoad, operators.TServerGroup, "load <= maxServerLoad"))
	reg.Add(constraint.MustInvariant(operators.InvBandwidth, operators.TClientRole, "bandwidth >= minBandwidth"))
	op = func(i int) {
		for j := 0; j < changed; j++ {
			clients[(i+j)%len(clients)].Props().SetFloat(operators.PropAvgLatency, 1+float64(i%8)/16)
		}
		if vs := reg.CheckAll(sys); vs != nil {
			panic(fmt.Sprintf("benchfix: %d violations on an in-bounds model", len(vs)))
		}
	}
	op(0)
	return op
}
