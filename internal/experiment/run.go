package experiment

import (
	"fmt"
	"sort"
	"strings"

	"archadapt/internal/app"
	"archadapt/internal/core"
	"archadapt/internal/metrics"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
	"archadapt/internal/workload"
)

// samplePeriod is the period of the ground-truth series.
const samplePeriod = 5.0

// Options configures one experimental run.
type Options struct {
	// Adaptive enables the framework's repairs; false is the control run.
	Adaptive bool
	// Cfg tunes the manager (monitoring runs in both control and adaptive
	// runs, so the network carries the same monitoring load either way).
	Cfg core.Config
	// Seed drives every stochastic stream; control and adaptive runs use
	// the same seed to get the paper's matched request sequences.
	Seed uint64
	// Duration of the run (default: the paper's 1800 s).
	Duration float64
	// Oscillate replaces the Figure 7 schedule's middle phase with
	// alternating competition (the §5.3 oscillation scenario).
	Oscillate bool
}

// Results carries the measured series and repair history of one run.
type Results struct {
	Opts Options

	// Latency: one series per client (Figures 8 and 11).
	Latency map[string]*metrics.Series
	// Queue: one series per group (Figures 9 and 13).
	Queue map[string]*metrics.Series
	// Bandwidth: available bandwidth client↔its current group
	// (Figures 10 and 12).
	Bandwidth map[string]*metrics.Series

	Spans  []core.RepairSpan
	Alerts []core.Alert

	Clients []string
	Groups  []string

	// Final state, for assertions.
	ActiveServers map[string][]string
	ClientGroups  map[string]string
	Responses     map[string]uint64
	Dropped       uint64
}

// Run executes one full experiment.
func Run(opts Options) *Results { return run(opts, nil) }

// run is Run with bind, when non-nil, applied to the manager before it
// deploys: the seam the tests rebind a reference strategy through.
func run(opts Options, bind func(*core.Manager)) *Results {
	if opts.Duration <= 0 {
		opts.Duration = workload.RunEnd
	}
	tb := NewTestbed(opts.Seed)
	cfg := opts.Cfg
	cfg.DisableRepairs = !opts.Adaptive
	mgr := tb.Manage(cfg)
	if bind != nil {
		bind(mgr)
	}
	mgr.Deploy()

	// Workload (its RNG stream is isolated from the clients').
	rng := sim.NewRand(opts.Seed ^ 0x9e3779b97f4a7c15)
	sched := workload.Paper(tb.Net, tb.App, tb.Links, rng)
	sched.Install(tb.K)
	if opts.Oscillate {
		osc := workload.Oscillator(tb.Net, tb.Links, workload.PhaseBWEnd, workload.PhaseLoadEnd, 60)
		osc.Install(tb.K)
	}

	res := &Results{
		Opts:      opts,
		Latency:   map[string]*metrics.Series{},
		Queue:     map[string]*metrics.Series{},
		Bandwidth: map[string]*metrics.Series{},
		Clients:   tb.App.Clients(),
		Groups:    tb.App.Groups(),
	}

	// Ground-truth samplers (window average, or age of the oldest
	// outstanding request while a client is wedged — see app.ObserveLatency).
	obs := app.ObserveLatency(tb.App, tb.App.Clients(), 30)
	for _, name := range tb.App.Clients() {
		res.Latency[name] = metrics.NewSeries("latency:" + name)
		res.Bandwidth[name] = metrics.NewSeries("bandwidth:" + name)
	}
	for _, g := range tb.App.Groups() {
		res.Queue[g] = metrics.NewSeries("queue:" + g)
	}

	tb.K.Ticker(samplePeriod, samplePeriod, func(now float64) {
		for _, name := range tb.App.Clients() {
			if v, ok := obs.Sample(name, now); ok {
				res.Latency[name].Add(now, v)
			}
			cli := tb.App.Client(name)
			if srv, _ := tb.App.ActiveServers(cli.Group); srv != nil {
				res.Bandwidth[name].Add(now, tb.Net.AvailBandwidth(srv.Host, cli.Host)/1e6) // Mbps
			}
		}
		for _, g := range tb.App.Groups() {
			res.Queue[g].Add(now, float64(tb.App.QueueLen(g)))
		}
	})

	// Run to completion: the schedule stops clients at Duration; drain the
	// tail (in-flight transfers, gauge churn) afterwards.
	tb.K.Run(opts.Duration)
	mgr.Stop()
	tb.App.StopClients()
	tb.K.Run(opts.Duration + 300)

	res.Spans = mgr.Spans()
	res.Alerts = mgr.Alerts()
	res.ActiveServers = map[string][]string{}
	for _, g := range tb.App.Groups() {
		res.ActiveServers[g] = tb.App.ActiveServersOf(g)
	}
	res.ClientGroups = map[string]string{}
	res.Responses = map[string]uint64{}
	for _, c := range tb.App.Clients() {
		res.ClientGroups[c] = tb.App.Client(c).Group
		res.Responses[c] = tb.App.Client(c).Responses()
	}
	res.Dropped = tb.App.DroppedRequests()
	return res
}

// Summary aggregates a run for EXPERIMENTS.md and bench output.
type Summary struct {
	Adaptive bool
	// FirstViolationAt is the earliest time any client's measured average
	// latency exceeds the 2 s bound (paper: ≈140 s in the control).
	FirstViolationAt float64
	// FracAbove2s is the overall fraction of (client, sample) points above
	// the bound after the quiescent phase.
	FracAbove2s float64
	// FinalPhaseFracAbove2s is the same for the final ten minutes
	// (recovery).
	FinalPhaseFracAbove2s float64
	MaxQueue              float64
	MinBandwidthMbps      float64
	Repairs               int
	MeanRepairSeconds     float64
	ServerActivations     map[string]float64 // server -> activation time
	Moves                 int
	Alerts                int
	Responses             uint64
}

// Summarize computes the run's aggregate row.
func (r *Results) Summarize() Summary {
	s := Summary{Adaptive: r.Opts.Adaptive, FirstViolationAt: -1, ServerActivations: map[string]float64{}}
	for _, cli := range r.Clients {
		ser := r.Latency[cli]
		if t := ser.FirstAbove(2.0); t >= 0 && (s.FirstViolationAt < 0 || t < s.FirstViolationAt) {
			s.FirstViolationAt = t
		}
	}
	var above, total float64
	var aboveF, totalF float64
	end := r.Opts.Duration
	if end <= 0 {
		end = workload.RunEnd
	}
	for _, cli := range r.Clients {
		ser := r.Latency[cli]
		for i := 0; i < ser.Len(); i++ {
			t, v := ser.At(i)
			if t < workload.PhaseQuiesceEnd {
				continue
			}
			total++
			if v > 2.0 {
				above++
			}
			if t >= end-600 {
				totalF++
				if v > 2.0 {
					aboveF++
				}
			}
		}
	}
	if total > 0 {
		s.FracAbove2s = above / total
	}
	if totalF > 0 {
		s.FinalPhaseFracAbove2s = aboveF / totalF
	}
	for _, g := range r.Groups {
		if m := r.Queue[g].Max(); m > s.MaxQueue {
			s.MaxQueue = m
		}
	}
	s.MinBandwidthMbps = 1e9
	for _, cli := range r.Clients {
		if m := r.Bandwidth[cli].Min(); m < s.MinBandwidthMbps {
			s.MinBandwidthMbps = m
		}
	}
	s.Repairs = len(r.Spans)
	for _, sp := range r.Spans {
		s.MeanRepairSeconds += sp.Duration()
		for _, op := range sp.Ops {
			switch op.Kind {
			case repair.OpAddServer:
				if _, seen := s.ServerActivations[op.Server]; !seen {
					s.ServerActivations[op.Server] = sp.Start
				}
			case repair.OpMoveClient:
				s.Moves++
			}
		}
	}
	if s.Repairs > 0 {
		s.MeanRepairSeconds /= float64(s.Repairs)
	}
	s.Alerts = len(r.Alerts)
	for _, n := range r.Responses {
		s.Responses += n
	}
	return s
}

// String renders the summary as the harness's standard row block.
func (s Summary) String() string {
	var b strings.Builder
	kind := "control"
	if s.Adaptive {
		kind = "adaptive"
	}
	fmt.Fprintf(&b, "run=%s\n", kind)
	fmt.Fprintf(&b, "  first latency violation     : %.0f s\n", s.FirstViolationAt)
	fmt.Fprintf(&b, "  samples above 2 s (t>120s)  : %.1f%%\n", 100*s.FracAbove2s)
	fmt.Fprintf(&b, "  samples above 2 s (final 10m): %.1f%%\n", 100*s.FinalPhaseFracAbove2s)
	fmt.Fprintf(&b, "  max queue length            : %.0f\n", s.MaxQueue)
	fmt.Fprintf(&b, "  min available bandwidth     : %.4g Mbps\n", s.MinBandwidthMbps)
	fmt.Fprintf(&b, "  repairs=%d moves=%d alerts=%d mean repair=%.1f s\n",
		s.Repairs, s.Moves, s.Alerts, s.MeanRepairSeconds)
	if len(s.ServerActivations) > 0 {
		var names []string
		for n := range s.ServerActivations {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "  spare %s activated at %.0f s\n", n, s.ServerActivations[n])
		}
	}
	fmt.Fprintf(&b, "  responses delivered         : %d\n", s.Responses)
	return b.String()
}
