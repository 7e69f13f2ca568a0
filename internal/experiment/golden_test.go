package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// The reproduction's numbers, pinned. The shape tests say how the paper reads
// (control never recovers, adaptive holds the bound); these say what this
// simulator prints, so a change to control code that moves the reproduction
// fails here even when every shape still holds. The seed-1 summaries are the
// EXPERIMENTS.md table. When a change is meant to move them, regenerate with
// `go run ./cmd/archadapt [-seed 7]` and update EXPERIMENTS.md in the same
// change.

const goldenSeed1 = `run=control
  first latency violation     : 125 s
  samples above 2 s (t>120s)  : 99.7%
  samples above 2 s (final 10m): 100.0%
  max queue length            : 4814
  min available bandwidth     : 0.005 Mbps
  repairs=0 moves=0 alerts=0 mean repair=0.0 s
  responses delivered         : 12128
run=adaptive
  first latency violation     : 125 s
  samples above 2 s (t>120s)  : 11.3%
  samples above 2 s (final 10m): 0.0%
  max queue length            : 440
  min available bandwidth     : 0.005 Mbps
  repairs=4 moves=2 alerts=120 mean repair=32.9 s
  spare S4 activated at 146 s
  spare S7 activated at 686 s
  responses delivered         : 14036
`

const goldenSeed7 = `run=control
  first latency violation     : 125 s
  samples above 2 s (t>120s)  : 99.7%
  samples above 2 s (final 10m): 100.0%
  max queue length            : 5011
  min available bandwidth     : 0.005 Mbps
  repairs=0 moves=0 alerts=0 mean repair=0.0 s
  responses delivered         : 11958
run=adaptive
  first latency violation     : 125 s
  samples above 2 s (t>120s)  : 13.7%
  samples above 2 s (final 10m): 0.0%
  max queue length            : 511
  min available bandwidth     : 0.005 Mbps
  repairs=4 moves=2 alerts=142 mean repair=32.9 s
  spare S4 activated at 162 s
  spare S7 activated at 622 s
  responses delivered         : 14268
`

const goldenFigures = `Figure 8. Average Latency for Control
  latency:C1       n=420 min=0.234 max=779.8 mean=409.1
  latency:C2       n=420 min=0.2343 max=780.2 mean=409.2
  latency:C3       n=420 min=0.1838 max=780 mean=409.7
  latency:C4       n=420 min=0.239 max=780.4 mean=409.6
  latency:C5       n=420 min=0.2217 max=779.4 mean=409.3
  latency:C6       n=420 min=0.1913 max=779.7 mean=409.3
Figure 9. Server Load for Control
  queue:ServerGrp1 n=420 min=0 max=4814 mean=3129
  queue:ServerGrp2 n=420 min=0 max=0 mean=0
Figure 10. Available Bandwidth in Control
  bandwidth:C1     n=420 min=10 max=10 mean=10
  bandwidth:C2     n=420 min=10 max=10 mean=10
  bandwidth:C3     n=420 min=0.005 max=10 mean=2.413
  bandwidth:C4     n=420 min=0.005 max=10 mean=2.413
  bandwidth:C5     n=420 min=10 max=10 mean=10
  bandwidth:C6     n=420 min=10 max=10 mean=10
Figure 11. Average Latency under Repair
  latency:C1       n=365 min=0.2135 max=91.13 mean=5.225
  latency:C2       n=365 min=0.2112 max=92.9 mean=5.302
  latency:C3       n=366 min=0.1838 max=111.4 mean=4.237
  latency:C4       n=365 min=0.2135 max=79.14 mean=2.336
  latency:C5       n=365 min=0.2076 max=93.6 mean=5.361
  latency:C6       n=365 min=0.1913 max=93.98 mean=5.333
Figure 12. Available Bandwidth under Repair
  bandwidth:C1     n=420 min=10 max=10 mean=10
  bandwidth:C2     n=420 min=10 max=10 mean=10
  bandwidth:C3     n=420 min=0.005 max=10 mean=6.2
  bandwidth:C4     n=420 min=0.005 max=10 mean=6.319
  bandwidth:C5     n=420 min=10 max=10 mean=10
  bandwidth:C6     n=420 min=10 max=10 mean=10
Figure 13. Server Load under Repair
  queue:ServerGrp1 n=420 min=0 max=440 mean=18.13
  queue:ServerGrp2 n=420 min=0 max=14 mean=0.281
repair intervals:
  [ 146 ..  161] C2 fixServerLoad
  [ 162 ..  213] C4 fixBandwidth
  [ 214 ..  265] C3 fixBandwidth
  [ 686 ..  701] C3 fixServerLoad
`

func TestGoldenSummaries(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want string
	}{{1, goldenSeed1}, {7, goldenSeed7}} {
		got := seedRun(false, tc.seed).Summarize().String() + seedRun(true, tc.seed).Summarize().String()
		if got != tc.want {
			t.Errorf("seed %d summaries:\n%s\nwant:\n%s", tc.seed, got, tc.want)
		}
	}
}

// TestGoldenFigureSeries pins min, max and mean of every series Figures 8–13
// plot at seed 1, and the repair intervals Figures 11–13 mark.
func TestGoldenFigureSeries(t *testing.T) {
	control, adaptive := controlRun(t), adaptiveRun(t)
	var b strings.Builder
	for f := Figure8; f <= Figure13; f++ {
		r := control
		if f.Adaptive() {
			r = adaptive
		}
		fmt.Fprintln(&b, f.Title())
		for _, s := range SeriesFor(f, r) {
			fmt.Fprintf(&b, "  %-16s n=%d min=%.4g max=%.4g mean=%.4g\n", s.Name, s.Len(), s.Min(), s.Max(), s.Mean())
		}
	}
	fmt.Fprintln(&b, "repair intervals:")
	for _, sp := range adaptive.Spans {
		fmt.Fprintf(&b, "  [%4.0f .. %4.0f] %s %s\n", sp.Start, sp.End, sp.Subject, strings.Join(sp.Tactics, "+"))
	}
	if got := b.String(); got != goldenFigures {
		t.Errorf("seed 1 figure series:\n%s\nwant:\n%s", got, goldenFigures)
	}
}
