package netsim

import "archadapt/internal/sim"

// Priority selects how a control message competes with data traffic.
type Priority int

const (
	// BestEffort messages share the network with data and competition
	// traffic: their latency grows as available bandwidth shrinks. This is
	// the paper's deployed configuration ("the same network is being used to
	// monitor the system as to run it").
	BestEffort Priority = iota
	// Prioritized messages ride a QoS-protected class and see full link
	// capacity regardless of congestion — the mitigation the paper proposes
	// in §5.3. Implemented as the ablation BenchmarkAblationMonitoringQoS.
	Prioritized
)

// The control-message delay model's fixed costs.
const (
	// ctrlFloor bounds control-message delay when the network is saturated:
	// a best-effort message sees at least this much bandwidth (bits/sec).
	ctrlFloor = 9600
	// ctrlPerHopOverhead is fixed per-hop processing time for control
	// messages (0.5 ms).
	ctrlPerHopOverhead = 5e-4
)

// MsgStats accumulates control-message accounting.
type MsgStats struct {
	Sent     uint64
	Bits     float64
	TotalLag float64 // summed delivery delays
	MaxLag   float64
	Dropped  uint64
}

// MessageStats returns cumulative control-plane statistics.
func (n *Network) MessageStats() MsgStats { return n.msgStats }

// SetDrop drops that fraction (0..1) of best-effort control messages,
// deterministically via the supplied RNG. Used for failure-injection tests of
// the monitoring stack.
func (n *Network) SetDrop(rate float64, rng *sim.Rand) {
	n.dropRate = rate
	n.dropRNG = rng
}

// SendMessage delivers a small control message of the given size after the
// path's current delay and invokes fn on arrival (fn may be nil for
// fire-and-forget accounting). It returns the modeled delay.
//
// Control messages do not open elastic flows: RPC calls, probe observations
// and gauge reports are tiny compared to data transfers, but their latency
// must still reflect congestion, because the paper's §5.3 lag between "the
// bandwidth actually rises and the time it is noticed" comes from exactly
// this coupling.
func (n *Network) SendMessage(src, dst NodeID, bits float64, prio Priority, fn func()) float64 {
	delay, delivered := n.Transmit(src, dst, bits, prio)
	if delivered && fn != nil {
		n.K.AtAnon(n.K.Now()+delay, fn)
	}
	return delay
}

// SendMessageTo is SendMessage with a closure-free callback: fn is a static
// function and arg its pre-bound receiver, so high-rate senders (the event
// bus's dispatch) schedule deliveries without allocating.
func (n *Network) SendMessageTo(src, dst NodeID, bits float64, prio Priority, fn func(any), arg any) float64 {
	delay, delivered := n.Transmit(src, dst, bits, prio)
	if delivered && fn != nil {
		n.K.AtAnonArg(n.K.Now()+delay, fn, arg)
	}
	return delay
}

// Transmit sends a control message without scheduling its arrival: it
// returns the modeled delay and whether the message arrives, so a sender
// that acts on the arrival can fold it into a later event of its own (the
// request pipeline's pull, which the server's service follows). Every control
// message is delayed, dropped and counted here.
func (n *Network) Transmit(src, dst NodeID, bits float64, prio Priority) (delay float64, delivered bool) {
	delay = n.messageDelay(src, dst, bits, prio)
	if n.dropRate > 0 && prio == BestEffort && n.dropRNG != nil && n.dropRNG.Float64() < n.dropRate {
		n.msgStats.Dropped++
		return delay, false
	}
	n.msgStats.Sent++
	n.msgStats.Bits += bits
	n.msgStats.TotalLag += delay
	if delay > n.msgStats.MaxLag {
		n.msgStats.MaxLag = delay
	}
	return delay, true
}

// messageDelay computes the current delivery delay for a control message
// without sending it.
func (n *Network) messageDelay(src, dst NodeID, bits float64, prio Priority) float64 {
	if src == dst {
		return 1e-5
	}
	path := n.route(src, dst)
	delay := 0.0
	for _, ri := range path {
		l := n.links[ri>>1]
		bw := l.Capacity
		if prio == BestEffort {
			bw = l.availCap(Dir(ri & 1))
			if bw < ctrlFloor {
				bw = ctrlFloor
			}
		}
		delay += l.PropDelay + ctrlPerHopOverhead + bits/bw
	}
	return delay
}
