package netsim_test

import (
	"testing"

	"archadapt/internal/benchfix"
)

// BenchmarkTransferCycle measures one warm fire-and-forget reply transfer,
// start to completion callback (fixture shared with cmd/benchjson).
func BenchmarkTransferCycle(b *testing.B) {
	op := benchfix.TransferCycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
