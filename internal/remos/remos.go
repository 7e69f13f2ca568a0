// Package remos simulates the Remos resource-query system the paper uses as
// its network probe (remos_get_flow, Table 1). It predicts the available
// bandwidth between two hosts by querying the network simulator, and
// reproduces the operational artifact reported in §5.3: "The first Remos
// query for information about bandwidth between two nodes on the network
// takes several minutes because Remos needs to collect and analyze data.
// After this initial delay, the query is quite fast." Pre-querying
// (Prequery/PrequeryAll) is the paper's mitigation.
package remos

import (
	"math"

	"archadapt/internal/netsim"
	"archadapt/internal/sim"
)

// The service's fixed costs.
const (
	// ColdDelay is the collection time for the first query about a host
	// pair. The paper reports "several minutes".
	ColdDelay = 90.0
	// warmDelay is the processing time for subsequent queries.
	warmDelay = 0.05
	// queryBits is the size of the query/response messages.
	queryBits = 8192.0
)

type pairKey struct{ src, dst netsim.NodeID }

// Service is a Remos collector running on a host.
type Service struct {
	K    *sim.Kernel
	Net  *netsim.Network
	Host netsim.NodeID

	warm map[pairKey]bool
	// pending holds the callers waiting on each cold collection in flight:
	// a pair is collecting exactly when it has an entry (a Prequery's is
	// nil).
	pending map[pairKey][]*query

	queries     uint64
	coldQueries uint64

	queryPool sim.Pool[query]
}

// query is one in-flight remos_get_flow exchange, or one GetFlowBatch
// exchange. Records are pooled: the warm path (every bandwidth gauge tick,
// fleet-wide) runs query → serve → reply → callback without allocating.
type query struct {
	s                *Service
	caller, src, dst netsim.NodeID
	fn               func(arg any, tag uint64, bw float64)
	arg              any
	tag              uint64
	bw               float64

	// A batch exchange's pairs, reply buffer and callback.
	srcs, dsts []netsim.NodeID
	out        []float64
	batchCb    func([]float64)
}

func (s *Service) getQuery() *query {
	q := s.queryPool.Get()
	q.s = s
	return q
}

func (s *Service) putQuery(q *query) {
	*q = query{s: s}
	s.queryPool.Put(q)
}

// Static callbacks for the pooled query path (no per-query closures).
func serveFn(arg any) {
	q := arg.(*query)
	q.s.serve(q)
}

func warmReplyFn(arg any) {
	q := arg.(*query)
	q.bw = q.s.measure(q.src, q.dst)
	q.s.Net.SendMessageTo(q.s.Host, q.caller, queryBits, netsim.BestEffort, callbackFn, q)
}

func callbackFn(arg any) {
	q := arg.(*query)
	fn, a, tag, bw := q.fn, q.arg, q.tag, q.bw
	q.s.putQuery(q)
	fn(a, tag, bw)
}

// callFn adapts GetFlow's plain callback, carried as the arg.
func callFn(arg any, _ uint64, bw float64) { arg.(func(float64))(bw) }

func batchServeFn(arg any) {
	q := arg.(*query)
	q.s.queries++
	q.s.K.AtAnonArg(q.s.K.Now()+warmDelay, batchMeasureFn, q)
}

func batchMeasureFn(arg any) {
	q := arg.(*query)
	s := q.s
	for i := range q.srcs {
		if s.warm[pairKey{q.srcs[i], q.dsts[i]}] {
			q.out[i] = s.measure(q.srcs[i], q.dsts[i])
		} else {
			q.out[i] = math.NaN()
			s.Prequery(q.srcs[i], q.dsts[i])
		}
	}
	bits := queryBits + float64(64*float64(len(q.srcs)))
	s.Net.SendMessageTo(s.Host, q.caller, bits, netsim.BestEffort, batchReplyFn, q)
}

func batchReplyFn(arg any) {
	q := arg.(*query)
	cb, out := q.batchCb, q.out
	q.s.putQuery(q)
	cb(out)
}

// New creates a Remos service on host.
func New(k *sim.Kernel, net *netsim.Network, host netsim.NodeID) *Service {
	return &Service{
		K: k, Net: net, Host: host,
		warm:    map[pairKey]bool{},
		pending: map[pairKey][]*query{},
	}
}

// Queries returns the total number of GetFlow calls served.
func (s *Service) Queries() uint64 { return s.queries }

// ColdQueries returns how many of them hit the collection path.
func (s *Service) ColdQueries() uint64 { return s.coldQueries }

// Warm reports whether the pair has been collected.
func (s *Service) Warm(src, dst netsim.NodeID) bool { return s.warm[pairKey{src, dst}] }

// measure reads the current prediction from the network.
func (s *Service) measure(src, dst netsim.NodeID) float64 {
	return s.Net.AvailBandwidth(src, dst)
}

// GetFlow asynchronously resolves the predicted available bandwidth from src
// to dst on behalf of a caller host: query message to the service, cold
// collection if the pair is new, response message back, then cb. This is
// Table 1's remos_get_flow.
func (s *Service) GetFlow(caller, src, dst netsim.NodeID, cb func(bw float64)) {
	s.GetFlowArg(caller, src, dst, callFn, cb, 0)
}

// GetFlowArg is GetFlow with a closure-free callback: fn is a static
// function called as fn(arg, tag, bw), so a periodic caller passes itself as
// arg and a sequence number as tag and a warm exchange allocates nothing.
func (s *Service) GetFlowArg(caller, src, dst netsim.NodeID, fn func(arg any, tag uint64, bw float64), arg any, tag uint64) {
	q := s.getQuery()
	q.caller, q.src, q.dst, q.fn, q.arg, q.tag = caller, src, dst, fn, arg, tag
	s.Net.SendMessageTo(caller, s.Host, queryBits, netsim.BestEffort, serveFn, q)
}

func (s *Service) serve(q *query) {
	s.queries++
	key := pairKey{q.src, q.dst}
	if s.warm[key] {
		s.K.AtAnonArg(s.K.Now()+warmDelay, warmReplyFn, q)
		return
	}
	// Cold: the record waits on the pair's collection (started here unless
	// one is already running).
	waiters, collecting := s.pending[key]
	s.pending[key] = append(waiters, q)
	if !collecting {
		s.startCollection(key, q.src, q.dst)
	}
}

// Predict returns the cached-path prediction synchronously when the pair is
// warm. Cold pairs return ok=false — callers like findServer must either
// wait for a GetFlow or skip the pair, which is precisely the lag the paper
// worked around by pre-querying.
func (s *Service) Predict(src, dst netsim.NodeID) (bw float64, ok bool) {
	if !s.warm[pairKey{src, dst}] {
		return 0, false
	}
	return s.measure(src, dst), true
}

// Prequery starts collection for a pair without a caller (the paper:
// "we pre-queried Remos so that subsequent queries were much faster").
func (s *Service) Prequery(src, dst netsim.NodeID) {
	key := pairKey{src, dst}
	if _, collecting := s.pending[key]; s.warm[key] || collecting {
		return
	}
	s.pending[key] = nil
	s.startCollection(key, src, dst)
}

// startCollection begins the cold data-collection pass for a pair whose
// pending entry the caller has made; when it completes, every pending
// waiter gets the fresh measurement.
func (s *Service) startCollection(key pairKey, src, dst netsim.NodeID) {
	s.coldQueries++
	s.K.AtAnon(s.K.Now()+ColdDelay, func() {
		s.warm[key] = true
		bw := s.measure(src, dst)
		waiters := s.pending[key]
		delete(s.pending, key)
		for _, q := range waiters {
			q.bw = bw
			s.Net.SendMessageTo(s.Host, q.caller, queryBits, netsim.BestEffort, callbackFn, q)
		}
	})
}

// GetFlowBatch resolves the predicted available bandwidth for len(srcs)
// (src, dst) pairs in one query/response exchange: one query message
// caller→collector, one warmDelay for the whole batch, one response message
// back (sized per pair), then cb(out). The pairs need not involve the
// caller — like GetFlow, the collector answers about arbitrary host pairs.
//
// Warm pairs are measured; cold pairs report NaN and kick off a background
// collection so later batches see them warm — a batch issued on a periodic
// control tick must never block the several minutes a cold collection takes.
// out must have length len(srcs) and is passed through to cb, so a periodic
// caller can reuse one buffer across batches.
func (s *Service) GetFlowBatch(caller netsim.NodeID, srcs, dsts []netsim.NodeID, out []float64, cb func(bws []float64)) {
	if len(srcs) != len(dsts) || len(out) != len(srcs) {
		// Invariant: the one fleet caller, RegionHealth, sizes all three
		// slices together when it builds its probe pairs; a mismatch is a
		// caller bug, not input.
		panic("remos: GetFlowBatch srcs/dsts/out length mismatch")
	}
	q := s.getQuery()
	q.caller, q.srcs, q.dsts, q.out, q.batchCb = caller, srcs, dsts, out, cb
	s.Net.SendMessageTo(caller, s.Host, queryBits, netsim.BestEffort, batchServeFn, q)
}

// PrequeryAll warms every (src, dst) pair.
func (s *Service) PrequeryAll(srcs, dsts []netsim.NodeID) {
	for _, a := range srcs {
		for _, b := range dsts {
			if a != b {
				s.Prequery(a, b)
			}
		}
	}
}
