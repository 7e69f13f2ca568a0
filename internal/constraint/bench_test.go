package constraint_test

import (
	"testing"

	"archadapt/internal/benchfix"
)

// BenchmarkCheckAll measures one warm control-loop check of the 64-client
// model, with nothing changed since the last and with one gauge report in
// between (fixture shared with cmd/benchjson).
func BenchmarkCheckAll(b *testing.B) {
	for _, v := range benchfix.CheckAllVariants {
		b.Run(v.Name, func(b *testing.B) {
			op := benchfix.CheckAll(v.Changed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}
