package remos

import (
	"math"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

func rig() (*sim.Kernel, *netsim.Network, *Service, netsim.NodeID, netsim.NodeID, netsim.LinkID) {
	k := sim.NewKernel()
	n := netsim.New(k)
	a := n.AddHost("a")
	r := n.AddRouter("r")
	b := n.AddHost("b")
	h := n.AddHost("remos")
	l1 := n.Connect(a, r, 10e6, 1e-3)
	n.Connect(b, r, 10e6, 1e-3)
	n.Connect(h, r, 10e6, 1e-3)
	return k, n, New(k, n, h), a, b, l1
}

func TestColdQueryTakesMinutes(t *testing.T) {
	k, _, s, a, b, _ := rig()
	var answered float64 = -1
	s.GetFlow(s.Host, a, b, func(bw float64) { answered = k.Now() })
	k.RunAll(0)
	if answered < ColdDelay {
		t.Fatalf("cold query answered at %v, want >= %v", answered, ColdDelay)
	}
	if s.ColdQueries() != 1 || s.Queries() != 1 {
		t.Fatalf("stats: %d/%d", s.ColdQueries(), s.Queries())
	}
}

func TestWarmQueryIsFast(t *testing.T) {
	k, _, s, a, b, _ := rig()
	s.GetFlow(s.Host, a, b, func(float64) {})
	k.RunAll(0)
	start := k.Now()
	var answered float64 = -1
	s.GetFlow(s.Host, a, b, func(float64) { answered = k.Now() })
	k.RunAll(0)
	if d := answered - start; d > 1 {
		t.Fatalf("warm query took %v, want sub-second", d)
	}
	if s.ColdQueries() != 1 {
		t.Fatalf("warm query should not re-collect: %d", s.ColdQueries())
	}
}

func TestConcurrentColdQueriesJoin(t *testing.T) {
	k, _, s, a, b, _ := rig()
	answers := 0
	for i := 0; i < 3; i++ {
		s.GetFlow(s.Host, a, b, func(float64) { answers++ })
	}
	k.RunAll(0)
	if answers != 3 {
		t.Fatalf("answers=%d", answers)
	}
	if s.ColdQueries() != 1 {
		t.Fatalf("concurrent queries should share one collection, got %d", s.ColdQueries())
	}
}

func TestPredictOnlyWarmPairs(t *testing.T) {
	k, _, s, a, b, _ := rig()
	if _, ok := s.Predict(a, b); ok {
		t.Fatal("cold pair should not predict")
	}
	s.Prequery(a, b)
	if _, ok := s.Predict(a, b); ok {
		t.Fatal("prequery must take ColdDelay before the pair warms")
	}
	k.RunAll(0)
	bw, ok := s.Predict(a, b)
	if !ok {
		t.Fatal("pair should be warm after prequery completes")
	}
	if math.Abs(bw-10e6) > 1 {
		t.Fatalf("bw=%v", bw)
	}
}

func TestPredictionTracksNetworkState(t *testing.T) {
	k, n, s, a, b, l1 := rig()
	s.Prequery(a, b)
	k.RunAll(0)
	n.SetBackgroundBoth(l1, 8e6)
	bw, _ := s.Predict(a, b)
	if math.Abs(bw-2e6) > 1 {
		t.Fatalf("prediction should reflect current competition: %v", bw)
	}
}

func TestPrequeryAllWarmsAllPairs(t *testing.T) {
	k, n, s, a, b, l1 := rig()
	c := n.AddHost("c")
	n.Connect(c, n.Link(l1).B, 10e6, 1e-3)
	s.PrequeryAll([]netsim.NodeID{a, b}, []netsim.NodeID{b, c})
	k.RunAll(0)
	for _, pair := range [][2]netsim.NodeID{{a, b}, {a, c}, {b, c}} {
		if !s.Warm(pair[0], pair[1]) {
			t.Fatalf("pair %v not warm", pair)
		}
	}
	if s.Warm(b, a) {
		t.Fatal("reverse pair should not be warm (directional)")
	}
	// Re-prequerying warm pairs is a no-op.
	cold := s.ColdQueries()
	s.PrequeryAll([]netsim.NodeID{a}, []netsim.NodeID{b})
	if s.ColdQueries() != cold {
		t.Fatal("prequery of a warm pair should not re-collect")
	}
}

func TestGetFlowWhilePrequeryPendingJoins(t *testing.T) {
	k, _, s, a, b, _ := rig()
	s.Prequery(a, b)
	got := -1.0
	s.GetFlow(s.Host, a, b, func(bw float64) { got = bw })
	k.RunAll(0)
	if got < 0 {
		t.Fatal("query joined to pending collection never answered")
	}
	if s.ColdQueries() != 1 {
		t.Fatalf("collections=%d, want 1", s.ColdQueries())
	}
}

func TestQueryDelayGrowsUnderCongestion(t *testing.T) {
	// The Remos round trip itself rides the shared network (§5.3 lag).
	k, n, s, a, b, l1 := rig()
	s.Prequery(a, b)
	k.RunAll(0)
	t0 := k.Now()
	var d1 float64
	s.GetFlow(a, a, b, func(float64) { d1 = k.Now() - t0 })
	k.RunAll(0)
	n.SetBackgroundBoth(l1, 10e6)
	t1 := k.Now()
	var d2 float64
	s.GetFlow(a, a, b, func(float64) { d2 = k.Now() - t1 })
	k.RunAll(0)
	if d2 < 5*d1 {
		t.Fatalf("congested query %v vs idle %v", d2, d1)
	}
}

// TestGetFlowBatchMixedWarmCold: a batch answers warm pairs with live
// measurements, reports NaN for cold pairs, and starts their collections so
// the next batch sees them warm — all in one query/response exchange.
func TestGetFlowBatchMixedWarmCold(t *testing.T) {
	k, n, s, a, b, _ := rig()
	s.Prequery(a, b)
	k.RunAll(0) // a→b warm; b→a still cold
	srcs := []netsim.NodeID{a, b}
	dsts := []netsim.NodeID{b, a}
	out := make([]float64, 2)
	queriesBefore := s.Queries()
	var got []float64
	s.GetFlowBatch(s.Host, srcs, dsts, out, func(bws []float64) { got = bws })
	k.RunAll(0)
	if got == nil {
		t.Fatal("batch callback never fired")
	}
	if want := n.AvailBandwidth(a, b); got[0] != want {
		t.Errorf("warm pair measured %v, want %v", got[0], want)
	}
	if !math.IsNaN(got[1]) {
		t.Errorf("cold pair measured %v, want NaN", got[1])
	}
	if s.Queries() != queriesBefore+1 {
		t.Errorf("batch counted as %d queries, want 1", s.Queries()-queriesBefore)
	}
	if !s.Warm(b, a) {
		t.Error("cold pair's background collection never completed")
	}
	// The next batch sees the previously-cold pair warm.
	var second []float64
	s.GetFlowBatch(s.Host, srcs, dsts, out, func(bws []float64) { second = bws })
	k.RunAll(0)
	if math.IsNaN(second[1]) {
		t.Error("pair still cold on the second batch")
	}
}

// TestGetFlowBatchReusesBuffer: the caller's out buffer is handed back to
// the callback, so periodic callers can reuse one slice with no per-batch
// allocation of results.
func TestGetFlowBatchReusesBuffer(t *testing.T) {
	k, _, s, a, b, _ := rig()
	s.Prequery(a, b)
	k.RunAll(0)
	out := make([]float64, 1)
	s.GetFlowBatch(s.Host, []netsim.NodeID{a}, []netsim.NodeID{b}, out, func(bws []float64) {
		if &bws[0] != &out[0] {
			t.Error("callback did not receive the caller's buffer")
		}
	})
	k.RunAll(0)
}
