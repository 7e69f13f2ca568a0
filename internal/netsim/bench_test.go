package netsim

import "testing"

// BenchmarkTransferCycle measures one warm fire-and-forget reply-sized
// transfer on a three-host star, start to completion callback — the unit the
// application's reply streaming repeats per request.
func BenchmarkTransferCycle(b *testing.B) {
	k, n, hosts, _ := star(3)
	i := 0
	op := func() {
		n.StartTransferArg(hosts[i%3], hosts[(i+1)%3], 20*8192, "x", func(any) {}, nil)
		k.RunAll(0)
		i++
	}
	for range hosts {
		op() // one per pair: routes memoised, free lists filled
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkSolveLoneFlow measures a reply flow alone on its path while a
// class flow holds another pair of the star: the start fills a one-flow
// component, and the solve after the completion finds no flow on the path it
// leaves, so it reads no link.
func BenchmarkSolveLoneFlow(b *testing.B) {
	k, n, hosts, _ := star(4)
	n.StartClassFlow(hosts[2], hosts[3], 2e6, "class")
	op := func() {
		n.StartTransferArg(hosts[0], hosts[1], 20*8192, "reply", func(any) {}, nil)
		k.RunAll(0)
	}
	op() // route memoised, free list filled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
