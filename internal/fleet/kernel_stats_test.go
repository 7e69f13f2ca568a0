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
// N=256 it narrows exactly once. At N=256 an insert into bottom shifts at most
// 8.53 entries on average, a tenth of what a latest-first bottom shifted
// there (85.3; it reads 4.1).
func TestFleetKernelWorkIsFlatPerApp(t *testing.T) {
	got := runBenchScript(t, 16).Fleet.K.Stats()
	want := sim.Stats{
		Scheduled: 162952, Fired: 162856, Reschedules: 737,
		BucketsDrained: 34451, RunsMerged: 48610,
		BottomInserts: 52296, BottomShifts: 20125,
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
	huge := runBenchScript(t, 256).Fleet.K.Stats()
	if huge.RetunesNarrower != 1 {
		t.Errorf("N=256: the calendar narrowed %d times, want exactly 1 (stats %+v)", huge.RetunesNarrower, huge)
	}
	if perInsert := float64(huge.BottomShifts) / float64(huge.BottomInserts); perInsert > 8.53 {
		t.Errorf("N=256: %.1f entries shifted per insert into bottom, want at most 8.53 (stats %+v)", perInsert, huge)
	}
}
