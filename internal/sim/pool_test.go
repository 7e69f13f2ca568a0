package sim

import "testing"

// TestPoolIsLIFO: Get hands back the record Put pushed last, clears the slot
// it leaves so the pool keeps no second reference, and makes a zero record
// once the pool is empty.
func TestPoolIsLIFO(t *testing.T) {
	type record struct{ n int }
	var p Pool[record]
	a, b := &record{1}, &record{2}
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != b || len(p) != 1 || p[:2][1] != nil {
		t.Fatalf("Get returned record %d with %d left and the slot left %p; want the last Put, 1 left, the slot clear", got.n, len(p), p[:2][1])
	}
	if got := p.Get(); got != a || len(p) != 0 || p[:1][0] != nil {
		t.Fatalf("Get returned record %d with %d left and the slot left %p; want the first Put, 0 left, the slot clear", got.n, len(p), p[:1][0])
	}
	if got := p.Get(); got == a || got == b || *got != (record{}) {
		t.Fatalf("Get on an empty pool returned %+v, want a fresh zero record", got)
	}
}
