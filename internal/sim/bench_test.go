package sim_test

import (
	"fmt"
	"testing"

	"archadapt/internal/benchfix"
)

// BenchmarkKernelHold measures the event queue alone: pop one, push one, at a
// fixed number pending (fixture shared with cmd/benchjson).
func BenchmarkKernelHold(b *testing.B) {
	for _, pending := range benchfix.HoldPendings {
		b.Run(fmt.Sprintf("pending=%dk", pending>>10), func(b *testing.B) {
			op := benchfix.KernelHold(pending)
			b.ReportAllocs()
			b.ResetTimer()
			op(b.N)
		})
	}
}
