package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The calendar is the kernel's one event queue. It owns no storage of its
// own but bottom and the merge scratch: a bucket is a chain threaded through
// Event.next and Event.prev from one head in a small ring, and a push is a
// multiply, a conversion and a link.
//
// Bucket b covers times [b·width, (b+1)·width). With cur the drained mark:
//
//   - bottom[first:] holds the queued events of bucket <= cur, sorted so the
//     earliest (at, seq) is at first; every slot outside it is clear. A pop
//     takes bottom[first] and advances first. A push that lands there is
//     binary-inserted, shifting whichever side of its place is shorter.
//   - heads[b&mask] chains, unsorted, the events of bucket b, cur < b < horizon.
//   - far chains, unsorted, the events of bucket >= horizon; farMin is their
//     earliest time. It is re-examined only when the ring has run empty, which
//     happens at least once per rotation.
//
// Only when the clock reaches a bucket is its chain copied into bottom and
// sorted on (at, seq), by merging the runs the chain already holds
// (sortRuns). The bucket an event's time maps to says which of the three
// holds it, so Reschedule and Cancel unlink it from there at once: from a
// chain through prev, from bottom by a binary search.
const (
	initHeads = 256
	initWidth = 1.0 / 64 // seconds; widths stay powers of two, so t*inv is exact
	// maxBucket stands for every time whose bucket number does not fit: such
	// events wait on far until nothing earlier is left.
	maxBucket = 1 << 62

	// The sizing rule (Brown's calendar queue, resized on queue length):
	// when more than headLoad events per head are queued, the ring grows by
	// headStep and the width shrinks by as much, so the ring always spans
	// initHeads·initWidth = 4 s and a denser queue is cut finer.
	headLoad, headStep = 16, 4

	// smallBucket is the longest drained bucket sortRuns insertion-sorts
	// once its runs are turned ascending, rather than merge them.
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
	k.inv = 1 / initWidth
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
		k.removeBottom(k.search(entry{at: e.At, seq: e.seq}))
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
		for f, n := k.far, 0; f != nil; f, n = f.next, n+1 {
			walked(n, k.farN)
			k.farMin = min(k.farMin, f.At)
		}
	}
}

// search returns where key belongs in bottom's queued entries, which are
// sorted earliest-first: every entry before the index fires before key, every
// one from it on after (or is key itself).
func (k *Kernel) search(key entry) int {
	return k.first + countBefore(k.bottom[k.first:], key)
}

// countBefore returns how many entries of s, sorted earliest-first, fire
// before key.
func countBefore(s []entry, key entry) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m].before(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertBottom places e, whose bucket is already drained, into bottom,
// shifting whichever side of its place is shorter: a push earlier than
// everything queued takes the slot the last pop freed, one later than
// everything is appended.
func (k *Kernel) insertBottom(e *Event) {
	live := len(k.bottom) - k.first
	k.stats.BottomInserts++
	ent := entry{at: e.At, seq: e.seq, e: e}
	i := k.search(ent)
	b := k.bottom
	if left := i - k.first; k.first > 0 && left < len(b)-i {
		copy(b[k.first-1:i-1], b[k.first:i])
		k.first--
		b[i-1] = ent
		k.stats.BottomShifts += uint64(left)
		return
	}
	if len(b) == cap(b) && k.first > 0 {
		// The array is full up to popped slots: slide the queue down into
		// them rather than grow it.
		copy(b, b[k.first:])
		clear(b[live:])
		b, i = b[:live], i-k.first
		k.first = 0
		k.stats.BottomShifts += uint64(live)
	}
	b = append(b, entry{})
	copy(b[i+1:], b[i:])
	b[i] = ent
	k.bottom = b
	k.stats.BottomShifts += uint64(len(b) - 1 - i)
}

// removeBottom takes bottom[i] out, shifting whichever side is shorter.
func (k *Kernel) removeBottom(i int) {
	b := k.bottom
	if left := i - k.first; left < len(b)-1-i {
		copy(b[k.first+1:i+1], b[k.first:i])
		b[k.first] = entry{}
		k.first++
		k.stats.BottomShifts += uint64(left)
	} else {
		copy(b[i:], b[i+1:])
		b[len(b)-1] = entry{}
		k.bottom = b[:len(b)-1]
		k.stats.BottomShifts += uint64(len(b) - 1 - i)
	}
	k.trimBottom()
}

// trimBottom rewinds bottom to its start once nothing in it is queued.
func (k *Kernel) trimBottom() {
	if k.first == len(k.bottom) {
		k.bottom, k.first = k.bottom[:0], 0
	}
}

// refill drains buckets into the empty bottom until it holds something or the
// next bucket starts after until.
func (k *Kernel) refill(until Time) {
	if k.Pending() > headLoad*len(k.heads) {
		k.grow()
	}
	lim := k.bucketOf(until) // after the growth: a bucket number means nothing across widths
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
		if h := &k.heads[k.cur&int64(len(k.heads)-1)]; *h != nil {
			k.drain(h)
		}
	}
}

// drain moves the chain at h, the bucket the mark just reached, into the
// empty bottom and sorts it earliest-first by its runs, merging through the
// kernel's scratch, which it first grows, doubling, to half the bucket.
func (k *Kernel) drain(h **Event) {
	b := k.bottom
	for e := *h; e != nil; {
		walked(len(b), k.ringN)
		next := e.next
		e.next, e.prev = nil, nil
		b = append(b, entry{at: e.At, seq: e.seq, e: e})
		e = next
	}
	*h = nil
	k.bottom = b
	k.ringN -= len(b)
	k.stats.BucketsDrained++
	if half := len(b) / 2; len(b) > smallBucket && half > len(k.scratch) {
		k.scratch = make([]entry, max(half, 2*len(k.scratch)))
	}
	k.stats.RunsMerged += uint64(sortRuns(b, k.scratch))
}

// sortRuns sorts b earliest-first on (at, seq) and returns the number of
// maximal monotone runs it cut b into. A chain is linked LIFO, and a far
// rescan or a growth re-links it the other way round, so a drained bucket is
// a few runs in either direction: a fleet tick's same-instant clump is one.
// The first pass turns the descending runs round and merges neighbours in
// pairs; each later pass merges neighbouring ascending runs, until one is
// left, which takes at most bits.Len(r)+1 passes over r runs: a merge that
// breaks the order leaves it broken rather than loop. A bucket of n entries
// in r runs costs O(n log r) comparisons. Past smallBucket entries tmp must
// hold half of b; what the merges leave there is cleared. Most buckets hold a
// handful of entries (5.2 on average at N=64), where a merge's set-up is the
// cost, so up to smallBucket entries are insertion-sorted once their runs are
// turned.
func sortRuns(b, tmp []entry) (runs int) {
	if len(b) <= smallBucket {
		for lo := 0; lo < len(b); runs++ {
			lo = cutRun(b, lo, true)
		}
		if runs > 1 {
			insertionSort(b)
		}
		return runs
	}
	for pass, passes := 0, 1; pass < passes; pass++ {
		pieces := 0
		for lo := 0; lo < len(b); {
			mid := cutRun(b, lo, pass == 0)
			pieces++
			if mid == len(b) {
				break
			}
			hi := cutRun(b, mid, pass == 0)
			pieces++
			merge(b[lo:hi], mid-lo, tmp)
			lo = hi
		}
		if pass == 0 {
			runs, passes = pieces, bits.Len(uint(pieces))+1
		}
		if pieces <= 2 {
			break
		}
	}
	if runs > 1 {
		clear(tmp[:len(b)/2]) // no merge's shorter side is longer
	}
	return runs
}

// insertionSort sorts b earliest-first on (at, seq), with entry.before
// inlined; it costs a comparison per entry plus one per inversion.
func insertionSort(b []entry) {
	for i := 1; i < len(b); i++ {
		x, j := b[i], i
		for ; j > 0 && x.before(b[j-1]); j-- {
			b[j] = b[j-1]
		}
		b[j] = x
	}
}

// cutRun returns the end of the maximal run that starts at b[lo]: ascending,
// or, when turn is set, descending and then reversed.
func cutRun(b []entry, lo int, turn bool) int {
	hi := lo + 1
	if turn && hi < len(b) && b[hi].before(b[lo]) {
		for hi++; hi < len(b) && b[hi].before(b[hi-1]); hi++ {
		}
		slices.Reverse(b[lo:hi])
		return hi
	}
	for ; hi < len(b) && b[hi-1].before(b[hi]); hi++ {
	}
	return hi
}

// merge merges s[:mid] and s[mid:], each earliest-first, copying the
// shorter of the two into tmp first; two that are already in order are left.
func merge(s []entry, mid int, tmp []entry) {
	if s[mid-1].before(s[mid]) {
		return
	}
	if mid <= len(s)-mid {
		t := tmp[:copy(tmp, s[:mid])]
		i, j, k := 0, mid, 0
		for ; i < len(t) && j < len(s); k++ {
			if s[j].before(t[i]) {
				s[k] = s[j]
				j++
			} else {
				s[k] = t[i]
				i++
			}
		}
		copy(s[k:], t[i:])
		return
	}
	t := tmp[:copy(tmp, s[mid:])]
	i, j, k := mid-1, len(t)-1, len(s)-1
	for ; i >= 0 && j >= 0; k-- {
		if t[j].before(s[i]) {
			s[k] = s[i]
			i--
		} else {
			s[k] = t[j]
			j--
		}
	}
	copy(s[:j+1], t[:j+1])
}

// rescanFar sets the horizon one ring ahead of the mark and moves every far
// event that now falls inside it to its chain.
func (k *Kernel) rescanFar() {
	k.horizon = k.cur + 1 + int64(len(k.heads))
	e, n := k.far, k.farN
	k.far, k.farN, k.farMin = nil, 0, math.Inf(1)
	for i := 0; e != nil; i++ {
		walked(i, n)
		next := e.next
		k.place(e) // every caller has left the mark before all of far
		e = next
	}
}

// grow applies the sizing rule; refill calls it with bottom empty. Every
// queued event is re-linked from the clock: nothing queued is earlier than
// now, so the mark restarts just before now's bucket. The chains are strung
// onto far through next alone; rescanFar places each event anew, back link
// included.
func (k *Kernel) grow() {
	n := 0
	for i, e := range k.heads {
		for e != nil {
			walked(n, k.ringN)
			n++
			next := e.next
			e.next, k.far = k.far, e
			e = next
		}
		k.heads[i] = nil
	}
	k.farN += k.ringN
	k.ringN = 0
	k.heads = make([]*Event, headStep*len(k.heads))
	k.inv *= headStep
	k.stats.HeadGrowths++
	k.cur = k.bucketOf(k.now) - 1
	k.rescanFar()
}

// walked panics once a walk has passed i events of a chain that the kernel
// counts n long: a chain that closes on itself would otherwise loop for
// ever.
func walked(i, n int) {
	// Invariant: ringN and farN count exactly the chained events, so only a
	// corrupted chain — an event linked twice, after a broken sort let an
	// unlink take out the wrong entry — gets here.
	if i >= n {
		panic(fmt.Sprintf("sim: calendar chain longer than the %d events it holds", n))
	}
}
