// Package workload generates the paper's experimental conditions: the
// Figure 7 stepping functions for bandwidth competition and server load.
// "We needed to arrange the bandwidth competition so that there were periods
// of time where the bandwidth would cause the latency of some clients to be
// high. Similarly, the clients were controlled so that they requested larger
// amounts of information more frequently for a period of time."
package workload

import (
	"sort"

	"archadapt/internal/app"
	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// Step is one scheduled change of experimental conditions.
type Step struct {
	At    float64
	Label string
	Apply func()
}

// Schedule is an ordered set of steps installed on the kernel.
type Schedule struct {
	Steps []Step
}

// Add appends a step.
func (s *Schedule) Add(at float64, label string, apply func()) {
	s.Steps = append(s.Steps, Step{At: at, Label: label, Apply: apply})
}

// Install schedules every step; steps are stable-sorted by time.
func (s *Schedule) Install(k *sim.Kernel) {
	steps := append([]Step(nil), s.Steps...)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
	for _, st := range steps {
		st := st
		k.At(st.At, st.Apply)
	}
}

// Phases of the paper's 30-minute run (Figure 7).
const (
	PhaseQuiesceEnd = 120.0  // 0–2 min: deployment
	PhaseBWEnd      = 600.0  // 2–10 min: crush C3,C4 ↔ SG1 bandwidth
	PhaseLoadEnd    = 1200.0 // 10–20 min: 20KB @ 2/s from all clients
	RunEnd          = 1800.0 // 20–30 min: restore C3,C4 ↔ SG2 bandwidth
)

// Sizes and rates. Baseline matches the paper's design inputs (small
// requests, ~20 KB-class replies, ≈6 req/s aggregate from six clients); the
// stress phase is Figure 7's "20KB @ >2/sec" from every client.
const (
	BaselineRate  = 1.0         // req/s per client
	StressRate    = 2.0         // req/s per client (Fig. 7: ">2/sec")
	BaselineResp  = 8 * 8192.0  // bits (median; jittered per request)
	StressResp    = 20 * 8192.0 // bits (fixed 20 KB)
	RequestBits   = 0.5 * 8192.0
	RespSizeSigma = 0.35
)

// Links identifies the two contested paths of Figure 7 in the testbed
// topology: C3,C4↔SG1 crosses SG1Path; C3,C4↔SG2 crosses SG2Path.
type Links struct {
	SG1Path netsim.LinkID // router link between C3/C4's router and SG1's
	SG2Path netsim.LinkID // router link between C3/C4's router and SG2's
}

// Competition levels (available bandwidth left on the contested links).
const (
	LinkCapacity = 10e6
	// CrushedAvail starves the path below the 10 Kbps analysis floor.
	CrushedAvail = 5e3
	// ReducedAvail is Figure 7's 2 Mbps step.
	ReducedAvail = 2e6
	// ModerateAvail is the 3 Mbps "moderate bandwidth ... between the
	// opposite server groups".
	ModerateAvail = 3e6
	// HighAvail is the 5 Mbps step.
	HighAvail = 5e6
	// RestoredAvail is the 9 Mbps step of the final phase.
	RestoredAvail = 9e6
)

func setAvail(net *netsim.Network, link netsim.LinkID, avail float64) {
	net.SetBackgroundBoth(link, LinkCapacity-avail)
}

// Paper builds the Figure 7 schedule against a system and its contested
// links. rng seeds per-client response-size jitter; the same seed produces
// the same request/response sequence, the paper's control-variable trick
// ("seeding the clients so that the size of requests and responses occurred
// in the same sequence in both experiments").
func Paper(net *netsim.Network, sys *app.System, links Links, rng *sim.Rand) *Schedule {
	s := &Schedule{}
	baseline := func() {
		for _, name := range sys.Clients() {
			cli := sys.Client(name)
			cli.Rate = BaselineRate
			cli.ReqBits = RequestBits
			cli.RespBits = app.LogNormalSize(BaselineResp, RespSizeSigma, rng.Fork("resp:"+name))
		}
	}
	s.Add(0, "baseline traffic; all paths idle", func() {
		baseline()
		setAvail(net, links.SG1Path, LinkCapacity)
		setAvail(net, links.SG2Path, LinkCapacity)
		sys.Start()
	})
	s.Add(PhaseQuiesceEnd, "crush C3,C4<->SG1; SG2 path at 5 Mbps", func() {
		setAvail(net, links.SG1Path, CrushedAvail)
		setAvail(net, links.SG2Path, HighAvail)
	})
	s.Add(PhaseBWEnd, "20KB @ 2/s from all clients; SG1 path 2 Mbps; SG2 path 3 Mbps", func() {
		for _, name := range sys.Clients() {
			cli := sys.Client(name)
			cli.Rate = StressRate
			cli.RespBits = app.ConstSize(StressResp)
		}
		setAvail(net, links.SG1Path, ReducedAvail)
		setAvail(net, links.SG2Path, ModerateAvail)
	})
	s.Add(PhaseLoadEnd, "baseline load; restore C3,C4<->SG2 to 9 Mbps; SG1 path 3 Mbps", func() {
		baseline()
		setAvail(net, links.SG2Path, RestoredAvail)
		setAvail(net, links.SG1Path, ModerateAvail)
	})
	s.Add(RunEnd, "stop clients", func() { sys.StopClients() })
	return s
}

// Oscillator is a synthetic §5.3 scenario: competition alternates between
// the two paths every `period` seconds during [from, to), making the
// bandwidth tactic ping-pong clients between groups — the oscillation the
// paper observed and proposed damping for.
func Oscillator(net *netsim.Network, links Links, from, to, period float64) *Schedule {
	s := &Schedule{}
	crushSG1 := true
	for t := from; t < to; t += period {
		t := t
		c := crushSG1
		s.Add(t, "alternate competition", func() {
			if c {
				setAvail(net, links.SG1Path, CrushedAvail)
				setAvail(net, links.SG2Path, HighAvail)
			} else {
				setAvail(net, links.SG1Path, HighAvail)
				setAvail(net, links.SG2Path, CrushedAvail)
			}
		})
		crushSG1 = !crushSG1
	}
	s.Add(to, "end oscillation", func() {
		setAvail(net, links.SG1Path, LinkCapacity)
		setAvail(net, links.SG2Path, LinkCapacity)
	})
	return s
}
