package fleet

import (
	"testing"

	"archadapt/internal/sim"
)

// TestFleetKernelWorkIsFlatPerApp pins the event queue's work counters on the
// benchmark script. The counters are deterministic: a change that moves
// Scheduled, Fired, Reschedules or PeakPending changed what the simulation
// does, one that moves the others changed how the calendar is tuned, and
// either says so here. Per app the events fired must not grow with the fleet,
// and the calendar's width settles: at N=64 it retunes at most four times, at
// N=256 it narrows exactly once.
func TestFleetKernelWorkIsFlatPerApp(t *testing.T) {
	got := runBenchScript(t, 16).Fleet.K.Stats()
	want := sim.Stats{
		Scheduled: 162952, Fired: 162856, Reschedules: 737,
		BucketsDrained: 34451, BottomInserts: 52296,
		FarRescans: 178, Jumps: 9, PeakPending: 1104,
	}
	if got != want {
		t.Errorf("N=16 seed 1: kernel stats\n got %+v\nwant %+v", got, want)
	}
	if testing.Short() {
		return
	}
	big := runBenchScript(t, 64).Fleet.K.Stats()
	if perApp16, perApp64 := float64(got.Fired)/16, float64(big.Fired)/64; perApp64 > 1.02*perApp16 {
		t.Errorf("events fired per app grow with the fleet: %.0f at N=16, %.0f at N=64", perApp16, perApp64)
	}
	if retunes := big.RetunesNarrower + big.RetunesWider; retunes > 4 {
		t.Errorf("N=64: the calendar retuned %d times in one run; every retune re-links the whole queue", retunes)
	}
	if huge := runBenchScript(t, 256).Fleet.K.Stats(); huge.RetunesNarrower != 1 {
		t.Errorf("N=256: the calendar narrowed %d times, want exactly 1 (stats %+v)", huge.RetunesNarrower, huge)
	}
}
