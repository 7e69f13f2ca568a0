package sim_test

import (
	"fmt"
	"testing"

	"archadapt/internal/benchfix"
)

// BenchmarkKernelHold measures the event queue alone: pop one, push one, at a
// fixed number pending, under Exp(1) delays and under the fleet's mix of
// delays and reschedules (fixture shared with cmd/benchjson).
func BenchmarkKernelHold(b *testing.B) {
	for _, mix := range benchfix.HoldMixes {
		for _, pending := range benchfix.HoldPendings {
			name := fmt.Sprintf("pending=%dk", pending>>10)
			if mix != "" {
				name = mix + "/" + name
			}
			b.Run(name, func(b *testing.B) {
				op := benchfix.KernelHold(mix, pending)
				b.ReportAllocs()
				b.ResetTimer()
				op(b.N)
			})
		}
	}
}
