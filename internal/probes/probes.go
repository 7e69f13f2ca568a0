// Package probes implements the lowest level of the paper's three-level
// monitoring infrastructure (Figure 4): probes are deployed in the target
// system, observe raw events, and announce observations on the probe bus.
//
// The application probes correspond to the paper's AIDE-instrumented Java
// probes ("the probes report when particular methods have been called, so
// that bandwidth, latency, and server load can be calculated by the
// gauges"); the flow probe wraps Remos.
//
// Probes publish onto a bus.Shard — an application's routing domain on the
// fleet-shared monitoring bus (or on a private per-application bus in the
// reference configuration). Attach functions return detach handles so the
// fleet can fully unhook a retired application's instrumentation.
package probes

import (
	"archadapt/internal/app"
	"archadapt/internal/bus"
	"archadapt/internal/sim"
)

// Probe-bus topics.
const (
	// TopicResponse carries one observation per client response:
	// Name=client, V1=latency, Group=group.
	TopicResponse = "probe.response"
	// TopicQueue carries periodic queue-length samples:
	// Group=group, V1=len.
	TopicQueue = "probe.queue"
)

// AttachResponseProbe instruments a client so every completed response is
// announced on the probe shard from the client's host. The returned detach
// function silences the probe (used when the application retires and its
// shard is released for reuse).
func AttachResponseProbe(sh *bus.Shard, c *app.Client) (detach func()) {
	attached := true
	c.OnResponse = append(c.OnResponse, func(r app.Response) {
		if !attached {
			return
		}
		sh.Publish(bus.Message{
			Topic: TopicResponse,
			Src:   c.Host,
			Name:  c.Name,
			V1:    r.Latency,
			Group: r.Req.Group(),
		})
	})
	return func() { attached = false }
}

// QueueProbe samples every group's queue length on a period and announces
// the samples from the queue machine. This realizes the paper's server-load
// measure ("we measure server load by measuring the size of the queue of
// waiting client requests").
type QueueProbe struct {
	stop func()
}

// StartQueueProbe begins sampling. Samples start after one period (probes
// need deployment time; the paper's first two minutes are quiescent for
// exactly this reason).
func StartQueueProbe(k *sim.Kernel, sh *bus.Shard, sys *app.System, period float64) *QueueProbe {
	p := &QueueProbe{}
	p.stop = k.Ticker(k.Now()+period, period, func(now sim.Time) {
		for _, g := range sys.Groups() {
			sh.Publish(bus.Message{
				Topic: TopicQueue,
				Src:   sys.QueueHost,
				Group: g,
				V1:    float64(sys.QueueLen(g)),
			})
		}
	})
	return p
}

// Stop halts sampling.
func (p *QueueProbe) Stop() {
	if p.stop != nil {
		p.stop()
	}
}
