package sim

import (
	"math"
	"slices"
)

// The calendar is the kernel's one event queue. It owns no storage of its
// own: a bucket is a chain threaded through Event.next and Event.prev from
// one head in a small ring, and a push is a multiply, a conversion and a
// link.
//
// Bucket b covers times [b·width, (b+1)·width). With cur the drained mark:
//
//   - bottom holds the queued events of bucket <= cur, sorted so the earliest
//     (at, seq) is at the tail. A push that lands there is binary-inserted.
//   - heads[b&mask] chains, unsorted, the events of bucket b, cur < b < horizon.
//   - far chains, unsorted, the events of bucket >= horizon; farMin is their
//     earliest time. It is re-examined only when the ring has run empty, which
//     happens at least once per rotation.
//
// Only when the clock reaches a bucket is its chain copied into bottom and
// sorted on (at, seq) (sortLatestFirst). The bucket an event's time maps to
// says which of the three holds it, so Reschedule and Cancel unlink it from
// there at once: from a chain through prev, from bottom by a binary search.
const (
	initHeads = 256
	initWidth = 1.0 / 64 // seconds; widths stay powers of two, so t*inv is exact
	minWidth  = 1.0 / (1 << 30)
	maxWidth  = 1
	// maxBucket stands for every time whose bucket number does not fit: such
	// events wait on far until nothing earlier is left.
	maxBucket = 1 << 62

	// The retune rule, in the costs it bounds, judged over a window of pops.
	// Too narrow shows as steps that fire nothing — empty buckets passed, far
	// events re-examined: past stepHigh of them per pop the width grows by
	// widthStep. Too wide shows as inserts into a bottom already longBottom
	// long, each shifting a sorted array: past one per longShare pops it
	// shrinks; at one per four, the benchmark's 256-app fleet never narrows
	// and inserts twice as many pushes into bottom. Either way every queued
	// event is re-linked, which the window (at least as many pops as events
	// are queued) pays for. The ring grows by headStep when more than
	// headLoad events per head are queued.
	retunePops            = 1024
	stepHigh              = 2
	longBottom, longShare = 64, 5
	widthStep             = 4
	headLoad, headStep    = 16, 4

	// smallBucket is the longest drained bucket sortLatestFirst insertion-sorts.
	smallBucket = 16
)

// entry is one slot of bottom. The ordering key (at, seq) sits in the slot
// itself so a search compares array elements: no load through the *Event,
// which at 10^5 pending events is a cache miss per comparison.
type entry struct {
	at  Time
	seq uint64
	e   *Event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (k *Kernel) initCalendar() {
	k.heads = make([]*Event, initHeads)
	k.width, k.inv = initWidth, 1/initWidth
	k.cur, k.horizon = -1, initHeads
	k.farMin = math.Inf(1)
}

// bucketOf maps a time to its bucket number. Bucket numbers that do not fit
// (and +Inf) are caught by a float comparison, before the conversion.
func (k *Kernel) bucketOf(t Time) int64 {
	q := t * k.inv
	if q >= maxBucket {
		return maxBucket
	}
	return int64(q)
}

// place files e, keyed already, where its bucket belongs.
func (k *Kernel) place(e *Event) {
	e.queued = true
	switch b := k.bucketOf(e.At); {
	case b >= k.horizon:
		link(&k.far, e)
		k.farN++
		k.farMin = min(k.farMin, e.At)
	case b > k.cur:
		link(&k.heads[b&int64(len(k.heads)-1)], e)
		k.ringN++
	default:
		k.insertBottom(e)
	}
}

// link puts e at the head of the chain at h.
func link(h **Event, e *Event) {
	e.next, e.prev = *h, nil
	if *h != nil {
		(*h).prev = e
	}
	*h = e
}

// unlink takes queued event e out of bottom, its chain or far, wherever its
// bucket puts it: from bottom by a binary search, from a chain through prev.
func (k *Kernel) unlink(e *Event) {
	e.queued = false
	b := k.bucketOf(e.At)
	if b <= k.cur {
		i := k.search(entry{at: e.At, seq: e.seq})
		k.bottom = slices.Delete(k.bottom, i, i+1)
		return
	}
	h := &k.far
	if b < k.horizon {
		h = &k.heads[b&int64(len(k.heads)-1)]
		k.ringN--
	} else {
		k.farN--
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		*h = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	if b >= k.horizon && e.At == k.farMin {
		k.farMin = math.Inf(1)
		for f := k.far; f != nil; f = f.next {
			k.farMin = min(k.farMin, f.At)
		}
	}
}

// search returns where key belongs in bottom, which is sorted latest-first:
// every entry before the index fires after key, every one from it on before.
func (k *Kernel) search(key entry) int {
	b := k.bottom
	lo, hi := 0, len(b)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); key.before(b[m]) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertBottom places e, whose bucket is already drained, into bottom.
func (k *Kernel) insertBottom(e *Event) {
	if len(k.bottom) >= longBottom {
		k.winLong++
	}
	ent := entry{at: e.At, seq: e.seq, e: e}
	i := k.search(ent)
	b := append(k.bottom, entry{})
	copy(b[i+1:], b[i:])
	b[i] = ent
	k.bottom = b
	k.stats.BottomInserts++
}

// refill drains buckets into the empty bottom until it holds something or the
// next bucket starts after until.
func (k *Kernel) refill(until Time) {
	n, pops := k.Pending(), k.stats.Fired-k.winPops
	if due := pops >= max(retunePops, uint64(n)); due || n > headLoad*len(k.heads) {
		k.retune(pops, due)
	}
	lim := k.bucketOf(until) // after the retune: a bucket number means nothing across widths
	for len(k.bottom) == 0 {
		if k.ringN == 0 {
			// Everything queued is on far: go straight to its earliest bucket.
			b := k.bucketOf(k.farMin)
			if k.farN == 0 || b > lim {
				return
			}
			if b > k.horizon {
				k.stats.Jumps++
			}
			k.cur = b - 1
			k.stats.FarRescans++
			k.rescanFar()
		} else if k.cur >= lim {
			return
		}
		k.cur++
		k.winSteps++
		if h := &k.heads[k.cur&int64(len(k.heads)-1)]; *h != nil {
			k.drain(h)
		}
	}
}

// drain moves the chain at h, the bucket the mark just reached, into the
// empty bottom and sorts it latest-first.
func (k *Kernel) drain(h **Event) {
	b := k.bottom
	for e := *h; e != nil; {
		next := e.next
		e.next, e.prev = nil, nil
		b = append(b, entry{at: e.At, seq: e.seq, e: e})
		e = next
	}
	*h = nil
	k.bottom = b
	k.ringN -= len(b)
	k.stats.BucketsDrained++
	sortLatestFirst(b)
}

// sortLatestFirst sorts b on (at, seq), latest first. Most drained buckets
// hold a handful of events (5.2 on average at N=64), where a comparator
// closure per comparison is the cost, so up to smallBucket entries are
// insertion-sorted with entry.before inlined. (at, seq) is a strict total
// order, so either sort leaves the one same order.
func sortLatestFirst(b []entry) {
	if len(b) > smallBucket {
		slices.SortFunc(b, latestFirst)
		return
	}
	for i := 1; i < len(b); i++ {
		x, j := b[i], i
		for ; j > 0 && b[j-1].before(x); j-- {
			b[j] = b[j-1]
		}
		b[j] = x
	}
}

func latestFirst(x, y entry) int {
	switch {
	case y.before(x):
		return -1
	case x.before(y):
		return 1
	}
	return 0
}

// rescanFar sets the horizon one ring ahead of the mark and moves every far
// event that now falls inside it to its chain.
func (k *Kernel) rescanFar() {
	k.horizon = k.cur + 1 + int64(len(k.heads))
	e := k.far
	k.far, k.farN, k.farMin = nil, 0, math.Inf(1)
	for e != nil {
		next := e.next
		k.winSteps++
		k.place(e) // every caller has left the mark before all of far
		e = next
	}
}

// retune applies the retune rule, pops into a window that is or is not yet
// due for judging; refill calls it with bottom empty.
func (k *Kernel) retune(pops uint64, due bool) {
	width, heads := k.width, len(k.heads)
	if due {
		switch {
		case k.winSteps > stepHigh*pops && width < maxWidth:
			width *= widthStep
			k.stats.RetunesWider++
		case k.winLong > pops/longShare && width > minWidth:
			width /= widthStep
			k.stats.RetunesNarrower++
		}
		k.openWindow()
	}
	if k.Pending() > headLoad*heads {
		heads *= headStep
		k.stats.HeadGrowths++
	}
	if width == k.width && heads == len(k.heads) {
		return
	}
	// Re-link every queued event from the clock: nothing queued is earlier
	// than now, so the mark restarts just before now's bucket. The chains are
	// strung onto far through next alone; rescanFar places each event anew,
	// back link included.
	for i, e := range k.heads {
		for e != nil {
			next := e.next
			e.next, k.far = k.far, e
			e = next
		}
		k.heads[i] = nil
	}
	k.ringN = 0
	if heads != len(k.heads) {
		k.heads = make([]*Event, heads)
	}
	k.width, k.inv = width, 1/width
	k.cur = k.bucketOf(k.now) - 1
	k.rescanFar()
	k.openWindow()
}

func (k *Kernel) openWindow() {
	k.winSteps, k.winLong, k.winPops = 0, 0, k.stats.Fired
}
