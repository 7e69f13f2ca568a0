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
