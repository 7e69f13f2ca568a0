package fleet

import (
	"testing"

	"archadapt/internal/sim"
)

// TestFleetKernelWorkIsFlatPerApp pins the event queue's work counters on the
// benchmark script. The counters are deterministic: a change that moves
// Scheduled, Fired, Reschedules or PeakPending changed what the simulation
// does, one that moves the others changed how the calendar is sized, and
// either says so here. Per app the events fired must not grow with the fleet.
// The ring grows by four, and the width shrinks by as much, once at N=64 and
// twice at N=256, which keeps the calendar's work per event flat: at N=256
// the entries shifted per insert into bottom and the runs per drained bucket
// are each within twice N=16's.
func TestFleetKernelWorkIsFlatPerApp(t *testing.T) {
	got := runBenchScript(t, 16).Fleet.K.Stats()
	want := sim.Stats{
		Scheduled: 144690, Fired: 144594, Reschedules: 737,
		BucketsDrained: 33071, RunsMerged: 44780,
		BottomInserts: 42938, BottomShifts: 14560,
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
	if big.HeadGrowths != 1 {
		t.Errorf("N=64: the ring grew %d times, want exactly 1 (stats %+v)", big.HeadGrowths, big)
	}
	huge := runBenchScript(t, 256).Fleet.K.Stats()
	if huge.HeadGrowths != 2 {
		t.Errorf("N=256: the ring grew %d times, want exactly 2 (stats %+v)", huge.HeadGrowths, huge)
	}
	perInsert := func(s sim.Stats) float64 { return float64(s.BottomShifts) / float64(s.BottomInserts) }
	perDrain := func(s sim.Stats) float64 { return float64(s.RunsMerged) / float64(s.BucketsDrained) }
	if a, b := perInsert(got), perInsert(huge); b > 2*a {
		t.Errorf("entries shifted per insert into bottom: %.2f at N=16, %.2f at N=256, want within 2x", a, b)
	}
	if a, b := perDrain(got), perDrain(huge); b > 2*a {
		t.Errorf("runs per drained bucket: %.2f at N=16, %.2f at N=256, want within 2x", a, b)
	}
	t.Logf("N=16/64/256: shifts per insert %.2f/%.2f/%.2f, runs per drained bucket %.2f/%.2f/%.2f",
		perInsert(got), perInsert(big), perInsert(huge), perDrain(got), perDrain(big), perDrain(huge))
}
