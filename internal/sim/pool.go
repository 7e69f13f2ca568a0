package sim

// Pool is a free list of records kept for reuse, last in first out. What a
// record must reset before its next use is its owner's business: Get hands
// it back as Put left it.
type Pool[T any] []*T

// Get pops the record Put pushed last, clearing the slot it leaves, or
// returns a zero record when the pool is empty.
func (p *Pool[T]) Get() *T {
	s := *p
	n := len(s) - 1
	if n < 0 {
		return new(T)
	}
	x := s[n]
	s[n] = nil
	*p = s[:n]
	return x
}

// Put pushes x for a later Get.
func (p *Pool[T]) Put(x *T) { *p = append(*p, x) }
