package remos

import (
	"math"
	"slices"
	"testing"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// getFlowServed is GetFlowArg as it was before warm queries were fused: the
// query's arrival is always a serve event, warm pair or not.
func (s *Service) getFlowServed(caller, src, dst netsim.NodeID, fn func(arg any, tag uint64, bw float64), arg any, tag uint64) {
	q := s.getQuery()
	q.caller, q.src, q.dst, q.fn, q.arg, q.tag = caller, src, dst, fn, arg, tag
	s.Net.SendMessageTo(caller, s.Host, queryBits, netsim.BestEffort, serveFn, q)
}

// getFlowBatchServed is GetFlowBatch as it was: the query's arrival is an
// event that counts it and waits warmDelay.
func (s *Service) getFlowBatchServed(caller netsim.NodeID, srcs, dsts []netsim.NodeID, out []float64, cb func([]float64)) {
	q := s.getQuery()
	q.caller, q.srcs, q.dsts, q.out, q.batchCb = caller, srcs, dsts, out, cb
	s.Net.SendMessageTo(caller, s.Host, queryBits, netsim.BestEffort, func(arg any) {
		q := arg.(*query)
		q.s.queries++
		q.s.K.AtAnonArg(q.s.K.Now()+warmDelay, batchMeasureFn, q)
	}, q)
}

// A warm query and a batch answered without their serve event reach the
// caller at the same float time with the same bandwidth as through it, under
// message loss and a bandwidth that moves while queries fly; they draw the
// same losses, count the same queries once every exchange has ended, and
// fire one event fewer per query that reaches the collector fused.
func TestFusedQueriesMatchServedOnes(t *testing.T) {
	type reply struct {
		at uint64 // the reply time's bits
		bw float64
	}
	type outcome struct {
		replies, batches []reply
		queries, cold    uint64
		fusedQueries     uint64 // counted inside the call that sent them
		netDraw, fired   uint64
		msgs             netsim.MsgStats
	}
	run := func(fused bool) outcome {
		k, n, s, a, b, l1 := rig()
		s.Prequery(a, b)
		k.RunAll(0) // a→b warm; b→a stays cold until a batch collects it
		netRNG := sim.NewRand(31)
		n.SetDrop(0.15, netRNG)
		var o outcome
		single := func(_ any, _ uint64, bw float64) {
			o.replies = append(o.replies, reply{math.Float64bits(k.Now()), bw})
		}
		srcs, dsts := []netsim.NodeID{a, b}, []netsim.NodeID{b, a}
		out := make([]float64, 2)
		batch := func(bws []float64) {
			o.batches = append(o.batches, reply{math.Float64bits(k.Now()), bws[0]}, reply{0, bws[1]})
		}
		bg := sim.NewRand(32)
		t0 := k.Now()
		for i := 0; i < 800; i++ {
			at := t0 + float64(i)*0.173
			caller := []netsim.NodeID{a, b, s.Host}[i%3]
			load := float64(bg.Intn(9)) * 1e6
			k.At(at, func() {
				n.SetBackgroundBoth(l1, load)
				before := s.Queries()
				defer func() { o.fusedQueries += s.Queries() - before }()
				if i%5 == 0 {
					if fused {
						s.GetFlowBatch(caller, srcs, dsts, out, batch)
					} else {
						s.getFlowBatchServed(caller, srcs, dsts, out, batch)
					}
					return
				}
				src, dst := srcs[i%2], dsts[i%2] // b→a: cold, collecting, then warm
				if fused {
					s.GetFlowArg(caller, src, dst, single, nil, 0)
				} else {
					s.getFlowServed(caller, src, dst, single, nil, 0)
				}
			})
		}
		k.RunAll(0)
		o.queries, o.cold, o.netDraw, o.fired, o.msgs = s.Queries(), s.ColdQueries(), netRNG.Uint64(), k.Stats().Fired, n.MessageStats()
		return o
	}
	fused, served := run(true), run(false)
	if len(served.replies) < 400 || len(served.batches) < 160 || served.msgs.Dropped == 0 {
		t.Fatalf("degenerate run: %d replies, %d batch replies, %d drops", len(served.replies), len(served.batches), served.msgs.Dropped)
	}
	if !slices.Equal(fused.replies, served.replies) {
		t.Fatal("fused warm replies differ from served ones")
	}
	if !slices.EqualFunc(fused.batches, served.batches, func(x, y reply) bool {
		return x.at == y.at && (x.bw == y.bw || math.IsNaN(x.bw) && math.IsNaN(y.bw))
	}) {
		t.Fatal("fused batch replies differ from served ones")
	}
	if fused.netDraw != served.netDraw || fused.msgs != served.msgs {
		t.Fatalf("loss differs: fused %+v, served %+v", fused.msgs, served.msgs)
	}
	if fused.queries != served.queries || fused.cold != served.cold {
		t.Fatalf("queries %d (%d cold), served %d (%d cold)", fused.queries, fused.cold, served.queries, served.cold)
	}
	if fused.fusedQueries == 0 || fused.fusedQueries == fused.queries {
		t.Fatalf("%d of %d queries fused: the run must mix both paths", fused.fusedQueries, fused.queries)
	}
	if saved := served.fired - fused.fired; saved != fused.fusedQueries {
		t.Fatalf("fusing saved %d events, want one per fused query (%d)", saved, fused.fusedQueries)
	}
}

// A query sent while its pair is still collecting is served at its arrival,
// where it finds the pair warm: it takes the warm path then, without joining
// a collection, and counts only when it arrives.
func TestQueryWarmedInFlightIsServed(t *testing.T) {
	k, _, s, a, b, _ := rig()
	s.Prequery(a, b) // warm at ColdDelay
	var answered float64 = -1
	k.At(ColdDelay-1e-4, func() {
		s.GetFlow(a, a, b, func(float64) { answered = k.Now() })
		if s.Queries() != 0 {
			t.Error("a query about a cold pair counted before its arrival")
		}
	})
	k.RunAll(0)
	if answered < 0 || answered > ColdDelay+1 {
		t.Fatalf("answered at %v, want within a second of %v", answered, ColdDelay)
	}
	if s.Queries() != 1 || s.ColdQueries() != 1 {
		t.Fatalf("queries %d, cold %d; want 1 and the prequery's 1", s.Queries(), s.ColdQueries())
	}
}
