// Package bus is a content-based publish/subscribe event service in the
// spirit of Siena, which the paper uses to carry probe observations and
// gauge reports across the distributed system.
//
// Deliveries are real messages on the simulated network. By default they are
// best-effort, so monitoring traffic competes with application data — the
// configuration the paper deployed and then identified as a problem ("the
// same network is being used to monitor the system as to run it");
// Prioritized delivery models the QoS mitigation of §5.3.
//
// # Sharding
//
// One Bus carries the monitoring traffic of an entire fleet. Tenants —
// managed applications — attach through Shard handles: a shard is an
// isolated routing domain (publishes on a shard reach only that shard's
// subscribers), so N applications share one bus's dispatch machinery,
// subscription pool and delivery-record pool instead of owning N private
// buses. Shards released at retirement are recycled for the next admission;
// steady-state publish→deliver cycles allocate nothing. Bus.Default is the
// single-tenant shard the per-application reference configuration runs.
package bus

import (
	"strings"

	"archadapt/internal/netsim"
	"archadapt/internal/obs"
	"archadapt/internal/sim"
)

// Message is one event notification. The payload is a fixed set of typed
// slots rather than a map, so constructing and copying a message never
// allocates. Topics use the slots as follows:
//
//	probe.response  Name=client  Group=group            V1=latency
//	probe.queue     Group=group                         V1=len
//	gauge.report    Name=gauge   Target, Kind, Prop     V1=value
type Message struct {
	Topic string
	Src   netsim.NodeID
	Time  sim.Time

	Name   string // client / server / gauge name
	Target string
	Kind   string
	Prop   string
	Group  string
	V1     float64

	// Span is the message's own trace span, stamped by the bus at publish
	// time when the observability plane is enabled; Parent is the causal
	// predecessor the publisher pre-sets (e.g. a gauge parents its report on
	// the probe sample it last folded). Both stay zero — and cost nothing —
	// when tracing is off.
	Span, Parent obs.SpanID

	// Tag is a small integer the consumer hands the publisher and the
	// publisher stamps on every message: a gauge stamps the slot its
	// architecture manager resolved the report's model target into, so
	// applying a report needs no search. 0 is untagged.
	Tag int32
}

// slot names one of a Message's string fields. Wire names are resolved to
// slots once, by TopicAndField when a filter is built, so matching a message
// never compares field names.
type slot uint8

const (
	slotNone slot = iota // no such field
	slotName
	slotGroup
	slotTarget
	slotKind
	slotProp
)

// slotOf resolves a string field's wire name (see the slot table above).
func slotOf(name string) slot {
	switch name {
	case "client", "server", "gauge", "name":
		return slotName
	case "group":
		return slotGroup
	case "target":
		return slotTarget
	case "kind":
		return slotKind
	case "prop":
		return slotProp
	}
	return slotNone
}

func (m *Message) str(f slot) string {
	switch f {
	case slotName:
		return m.Name
	case slotGroup:
		return m.Group
	case slotTarget:
		return m.Target
	case slotKind:
		return m.Kind
	case slotProp:
		return m.Prop
	}
	return ""
}

// Filter decides whether a subscription matches a message (content-based
// routing). It is data, not code — a topic, optionally with one string field
// that must hold a given value — so the dispatch loop matches it inline
// against a *Message instead of calling out with a copy. The zero Filter
// matches nothing.
type Filter struct {
	topic string
	value string
	field slot // slotNone: the topic alone decides
	live  bool // false: matches nothing
}

// TopicIs matches messages by exact topic.
func TopicIs(topic string) Filter {
	return Filter{topic: topic, live: true}
}

// TopicAndField matches topic plus one string field value. field is a wire
// name from the Message slot table, resolved here, once; a name that is not
// in the table makes a filter that matches nothing, whatever the value.
func TopicAndField(topic, field, value string) Filter {
	f := slotOf(field)
	return Filter{topic: topic, field: f, value: value, live: f != slotNone}
}

func (f *Filter) matches(m *Message) bool {
	return f.live && m.Topic == f.topic && (f.field == slotNone || m.str(f.field) == f.value)
}

// Subscription is a registered consumer: a handler, or a Folder. Subscription
// structs are pooled bus-wide: gen is bumped when a subscription is recycled
// so that in-flight deliveries addressed to a previous tenant are discarded
// rather than handed to the new one.
type Subscription struct {
	Host    netsim.NodeID
	filter  Filter
	handler func(Message)
	folder  Folder
	gen     uint64
}

// Folder is a subscriber that only folds each sample into its own state,
// keyed by the sample's arrival time: it publishes nothing and schedules
// nothing in response, so it can take a sample before the sample's arrival
// and count it only from then on. at is the arrival time; m is the message
// as published.
type Folder interface {
	Fold(at sim.Time, m Message)
}

// msgBits is the on-wire size of one notification (2 KB).
const msgBits = 2 * 8192

// Bus routes published messages to matching subscribers over the network.
// It owns the shared infrastructure — pools and dispatch — while Shards own
// the per-tenant routing state.
type Bus struct {
	K   *sim.Kernel
	Net *netsim.Network
	// Priority applies to all bus traffic; BestEffort reproduces the
	// paper's monitoring lag, Prioritized is the QoS ablation.
	Priority netsim.Priority
	// Tracer, when non-nil, records a span per published message — the
	// observability plane's monitoring-level hook. Publish paths pay one nil
	// check when it is off.
	Tracer *obs.Tracer

	def      *Shard
	free     sim.Pool[Shard]
	subPool  sim.Pool[Subscription]
	dlvPool  sim.Pool[delivery]
	tenants  int
	acquired uint64
}

// New creates a bus on the network.
func New(k *sim.Kernel, net *netsim.Network) *Bus {
	return &Bus{K: k, Net: net}
}

// Shard is one tenant's isolated routing domain on a shared Bus. The zero
// value is not usable; obtain shards from Bus.Acquire (or Bus.Default).
type Shard struct {
	b    *Bus
	subs []*Subscription

	// Label names the tenant (the application) for trace spans published on
	// this shard. Set by the fleet at admission, cleared at Release.
	Label string

	published uint64
	delivered uint64
	dropped   uint64
	dropRate  float64
	dropRNG   *sim.Rand
	closed    bool
}

// Acquire leases a shard — fresh, or recycled from a retired tenant with its
// subscriber list's capacity intact.
func (b *Bus) Acquire() *Shard {
	b.tenants++
	b.acquired++
	sh := b.free.Get()
	*sh = Shard{b: b, subs: sh.subs}
	return sh
}

// Release detaches every remaining subscription and returns the shard to the
// bus's free list. In-flight deliveries addressed to the released tenant are
// discarded (generation check), never delivered to a later tenant.
func (sh *Shard) Release() {
	if sh.closed {
		return
	}
	sh.closed = true
	sh.Label = ""
	sh.b.tenants--
	for _, s := range sh.subs {
		sh.b.recycleSub(s)
	}
	sh.subs = sh.subs[:0]
	sh.b.free.Put(sh)
}

// Tenants returns the number of live shards (excluding the default shard).
func (b *Bus) Tenants() int { return b.tenants }

// ShardsAcquired returns the cumulative Acquire count — with Tenants, the
// shard-reuse observability for admission/retirement tests.
func (b *Bus) ShardsAcquired() uint64 { return b.acquired }

// Published returns the number of Publish calls on this shard.
func (sh *Shard) Published() uint64 { return sh.published }

// Delivered returns the number of notifications handed to subscribers.
func (sh *Shard) Delivered() uint64 { return sh.delivered }

// Dropped returns the number of notifications lost to injected faults.
func (sh *Shard) Dropped() uint64 { return sh.dropped }

// SetDrop makes the shard lose the given fraction of notifications,
// deterministically via rng — failure injection for the monitoring plane.
func (sh *Shard) SetDrop(rate float64, rng *sim.Rand) {
	sh.dropRate = rate
	sh.dropRNG = rng
}

// Subscribers returns the number of live subscriptions on the shard.
func (sh *Shard) Subscribers() int { return len(sh.subs) }

// Tracer returns the owning bus's tracer (nil when the observability plane
// is off) so gauges can parent their reports on probe-sample spans.
func (sh *Shard) Tracer() *obs.Tracer { return sh.b.Tracer }

// traceKind maps a bus topic to its span kind without importing the topic
// owners (probes, gauges import this package).
func traceKind(topic string) obs.Kind {
	switch {
	case strings.HasPrefix(topic, "probe."):
		return obs.KindProbeSample
	case topic == "gauge.report":
		return obs.KindGaugeReport
	}
	return obs.KindMessage
}

// traceMsg stamps the message's own span: kind from the topic, parent from
// the publisher's pre-set Parent, scope from the shard label. The subject is
// the message's Name (client, server, gauge) or its Group for group-keyed
// probe samples.
func (sh *Shard) traceMsg(msg *Message) {
	name := msg.Name
	if name == "" {
		name = msg.Group
	}
	msg.Span = sh.b.Tracer.Instant(traceKind(msg.Topic), msg.Parent, sh.Label, name, msg.V1, 0)
}

// Subscribe registers a handler running on host for messages matching f.
func (sh *Shard) Subscribe(host netsim.NodeID, f Filter, handler func(Message)) *Subscription {
	s := sh.b.subPool.Get()
	s.Host, s.filter, s.handler = host, f, handler
	sh.subs = append(sh.subs, s)
	return s
}

// SubscribeFold registers a Folder running on host for messages matching f.
// A message published on host is folded inside Publish, stamped with the
// arrival time its delivery event would have carried, and costs no event;
// one published elsewhere is delivered over the network as Subscribe's are,
// and folded at its arrival.
func (sh *Shard) SubscribeFold(host netsim.NodeID, f Filter, fd Folder) *Subscription {
	s := sh.b.subPool.Get()
	s.Host, s.filter, s.folder = host, f, fd
	sh.subs = append(sh.subs, s)
	return s
}

// Unsubscribe removes a subscription; queued deliveries are dropped. A
// handle not (or no longer) registered on the shard is a no-op: the struct
// may already be pooled and re-issued to another tenant, so a stale handle
// must never be able to touch it.
func (sh *Shard) Unsubscribe(s *Subscription) {
	if s == nil {
		return
	}
	for i, x := range sh.subs {
		if x == s {
			sh.subs = append(sh.subs[:i], sh.subs[i+1:]...)
			sh.b.recycleSub(s)
			return
		}
	}
}

// delivery is one notification in flight to one subscriber. Records are
// pooled on the Bus; gen pins the subscriber identity at send time.
type delivery struct {
	sh  *Shard
	sub *Subscription
	gen uint64
	msg Message
}

// deliverFn is the static delivery callback — no per-send closures. The
// record is pooled before the handler runs (a handler may publish), which is
// safe because the handler's by-value argument is copied out of the record
// as the call is made: the one copy a delivery costs after the send. A
// recycled subscription has moved on to a later gen, so a delivery addressed
// to its previous owner is stale.
func deliverFn(arg any) {
	d := arg.(*delivery)
	sub, sh := d.sub, d.sh
	stale := d.gen != sub.gen
	d.sh, d.sub = nil, nil
	sh.b.dlvPool.Put(d)
	if stale {
		return
	}
	sh.delivered++
	if sub.folder != nil {
		sub.folder.Fold(sh.b.K.Now(), d.msg)
		return
	}
	sub.handler(d.msg)
}

// recycleSub invalidates in-flight deliveries and pools the subscription.
func (b *Bus) recycleSub(s *Subscription) {
	s.gen++
	s.filter, s.handler, s.folder = Filter{}, nil, nil
	b.subPool.Put(s)
}

// Publish routes msg to every matching subscriber on the shard. A Folder on
// the publishing host takes the message at once, stamped with its arrival
// time; every other delivery is a network message with the bus priority
// (one to the same host takes a fixed 10 µs), scheduled as an event. Each
// delivery is delayed, dropped and counted by the network alike, so the
// fold changes no draw and no statistic. One publish is one dispatch pass:
// matching, drop sampling and scheduling reuse pooled records, so the
// steady state allocates nothing. The message is copied once per delivery,
// into the pooled record or the fold's argument.
func (sh *Shard) Publish(msg Message) {
	b := sh.b
	msg.Time = b.K.Now()
	if b.Tracer != nil {
		sh.traceMsg(&msg)
	}
	sh.published++
	for _, s := range sh.subs {
		if !s.filter.matches(&msg) || sh.lost() {
			continue
		}
		if s.folder != nil && s.Host == msg.Src {
			if delay, ok := b.Net.Transmit(msg.Src, s.Host, msgBits, b.Priority); ok {
				sh.delivered++
				s.folder.Fold(msg.Time+delay, msg)
			}
			continue
		}
		d := b.dlvPool.Get()
		d.sh, d.sub, d.gen, d.msg = sh, s, s.gen, msg
		b.Net.SendMessageTo(msg.Src, s.Host, msgBits, b.Priority, deliverFn, d)
	}
}

// PublishBatch publishes each message in order, exactly as Publish would;
// msgs itself is only read.
func (sh *Shard) PublishBatch(msgs []Message) {
	for i := range msgs {
		sh.Publish(msgs[i])
	}
}

// lost reports whether the injected fault eats one notification. The
// dispatch loop asks once per matching subscriber, in subscription order, so
// that is also the order of the drop-RNG draws.
func (sh *Shard) lost() bool {
	if sh.dropRate > 0 && sh.dropRNG != nil && sh.dropRNG.Float64() < sh.dropRate {
		sh.dropped++
		return true
	}
	return false
}

// Default returns the bus's default shard (the single-tenant endpoint),
// creating it on first use.
func (b *Bus) Default() *Shard {
	if b.def == nil {
		b.def = &Shard{b: b}
	}
	return b.def
}
