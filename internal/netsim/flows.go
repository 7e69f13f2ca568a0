package netsim

import (
	"archadapt/internal/sim"
)

// Flow is an elastic bulk transfer in progress. Its rate is recomputed
// whenever the flow set or background load changes in its region of the
// network; progress is settled lazily, when the rate actually changes.
type Flow struct {
	id        uint64
	Src, Dst  NodeID
	Tag       string
	path      []int32 // hops, as resource indexes
	hopIdx    []int32 // position in each path resource's crossing list
	index     int     // position in net.flows; -1 once removed
	remaining float64 // bits still to deliver as of `last`
	rate      float64 // bits/sec currently allotted
	prevRate  float64 // solver scratch: rate before the current solve
	last      sim.Time
	// completion is the arrival event (pending, or fired or cancelled and
	// kept for the next re-arm). It and its callback are made on the first
	// arm and reused across reschedules and, for recycled flows, across lives.
	completion *sim.Event
	done       func(*Flow)
	doneArg    func(any)
	arg        any
	// recycled marks a StartTransferArg flow: nobody outside the network
	// holds it, so it returns to the free list once it completes.
	recycled  bool
	net       *Network
	size      float64
	cancelled bool
	seen      uint64 // region-visit epoch
	frozen    uint64 // progressive-filling freeze epoch

	// Class-flow state (StartClassFlow). A class flow never completes:
	// instead of draining `remaining` it accumulates `delivered` bits, and its
	// max–min allocation is capped at `demand` bits/sec, with the residual
	// capacity redistributed to the elastic flows sharing its links.
	class     bool
	demand    float64
	delivered float64 // bits delivered as of `last` (settled lazily)
}

// ID returns the flow's unique id (creation order).
func (f *Flow) ID() uint64 { return f.id }

// Rate returns the flow's current max–min allocation in bits/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Size returns the flow's total size in bits.
func (f *Flow) Size() float64 { return f.size }

// StartTransfer begins an elastic transfer of the given number of bits and
// invokes done (if non-nil) when the last bit arrives. Zero-hop transfers
// (src == dst, e.g. client C5 talking to server S5 on the shared machine)
// complete after a negligible local-IPC delay, through the same completion
// event as a transfer that crosses the network. The returned
// handle stays the caller's: its Flow is never recycled.
func (n *Network) StartTransfer(src, dst NodeID, bits float64, tag string, done func(*Flow)) *Flow {
	f := &Flow{done: done}
	n.start(f, src, dst, bits, tag)
	return f
}

// StartTransferArg is the fire-and-forget StartTransfer, as Kernel.AtAnonArg
// is to At: fn is a static function and arg its pre-bound receiver, and no
// handle is returned, so the transfer cannot be cancelled or inspected. In
// exchange the network recycles the Flow with its crossing-index array,
// completion event and callback once fn and the post-completion solve have
// returned — the per-request fast path of the application's reply streaming,
// allocation-free once warm.
func (n *Network) StartTransferArg(src, dst NodeID, bits float64, tag string, fn func(any), arg any) {
	f := n.freeFlows.Get()
	f.doneArg, f.arg, f.recycled = fn, arg, true
	n.start(f, src, dst, bits, tag)
}

// start launches f, a zero Flow or one off the free list with its callbacks
// already set. A flow alone on every resource of its path is settled on the
// spot (startAlone); any other start dirties its path for a region solve.
func (n *Network) start(f *Flow, src, dst NodeID, bits float64, tag string) {
	if bits <= 0 {
		bits = 1
	}
	now := n.K.Now()
	f.id = n.nextFlow
	n.nextFlow++
	f.Src, f.Dst, f.Tag = src, dst, tag
	f.path = n.route(src, dst)
	f.index = -1
	f.remaining, f.size = bits, bits
	f.last = now
	f.net = n
	if len(f.path) == 0 {
		// Same host: model as a fast local copy. The flow is never linked,
		// so completeFlow's unlink and solve find nothing to do.
		n.arm(f, now+1e-5)
		return
	}
	f.index = len(n.flows)
	n.flows = append(n.flows, f)
	n.linkFlow(f)
	if !n.startAlone(f) {
		n.dirtyPath(f.path)
		n.solve()
	}
}

// release returns a completed fire-and-forget flow to the free list, keeping
// only what the next transfer reuses. It runs last in a completion, when
// nothing in the network refers to f any more.
func (n *Network) release(f *Flow) {
	if !f.recycled {
		return
	}
	*f = Flow{hopIdx: f.hopIdx[:0], completion: f.completion}
	n.freeFlows.Put(f)
}

// Cancel aborts an in-progress transfer without invoking its completion
// callback. Used by failure-injection tests (e.g. a server crash mid-reply).
func (f *Flow) Cancel() {
	if f.cancelled {
		return
	}
	f.cancelled = true
	// Freeze the handle's progress at the cancellation instant: once the
	// flow leaves the network, its remaining and delivered bits must stop
	// extrapolating.
	now := f.net.K.Now()
	if dt := now - f.last; dt > 0 {
		if f.class {
			f.delivered += float64(f.rate * dt)
		} else {
			f.remaining -= float64(f.rate * dt)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	f.last = now
	f.rate = 0
	f.net.K.Cancel(f.completion)
	f.completion = nil
	f.net.removeFlow(f)
	f.net.solve()
}

// ActiveFlows returns the number of elastic flows currently in the network.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// CompletedFlows returns the number of finished transfers.
func (n *Network) CompletedFlows() uint64 { return n.completedFlows }

// arm aims f's completion event at at: the event is moved, or re-armed once
// it has fired or been cancelled, or made on the flow's first arm.
func (n *Network) arm(f *Flow, at sim.Time) {
	if !n.K.Reschedule(f.completion, at) {
		f.completion = n.K.At(at, func() { n.completeFlow(f) })
	}
}

// completeFlow fires when a flow's last bit arrives: unlink it (dirtying its
// region, or owing one solve if it was alone on its path), run the done
// callback, then re-solve. A callback that starts or cancels a flow solves
// there, and that solve covers the removal too, so a completion adds up to
// one solve either way. The application's callback starts none:
// replyDoneFn frees the server, whose next reply starts at a later
// servedFn. The fired event stays on the flow for the next arm.
func (n *Network) completeFlow(f *Flow) {
	n.removeFlow(f)
	n.finish(f)
	n.solve()
	n.release(f)
}

func (n *Network) finish(f *Flow) {
	if f.cancelled {
		return
	}
	f.remaining = 0
	f.last = n.K.Now()
	n.completedFlows++
	if f.done != nil {
		f.done(f)
	}
	if f.doneArg != nil {
		f.doneArg(f.arg)
	}
}
