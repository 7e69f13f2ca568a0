package constraint_test

import (
	"testing"

	"archadapt/internal/operators"
)

// BenchmarkCheckAll measures one warm control-loop check of a 64-client
// model, with nothing changed since the last and with one gauge report in
// between.
func BenchmarkCheckAll(b *testing.B) {
	for _, v := range []struct {
		name    string
		changed int // properties a gauge rewrites between two ticks
	}{{"unchanged", 0}, {"one-prop-changed", 1}} {
		b.Run(v.name, func(b *testing.B) {
			_, _, clients, clean := inBoundsModel(b, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < v.changed; j++ {
					clients[(i+j)%len(clients)].Props().SetFloat(operators.PropAvgLatency, 1+float64(i%8)/16)
				}
				clean()
			}
		})
	}
}
