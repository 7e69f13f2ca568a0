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
// the entries shifted in bottom per fired event and the runs per drained
// bucket are each within twice N=16's. Shifts are counted per fired event,
// not per insert into bottom: which events reach bottom depends on how many
// are short hops (a 10 µs message lands in the bucket being drained), so a
// per-insert ratio moves with the event mix, not with the calendar's work.
func TestFleetKernelWorkIsFlatPerApp(t *testing.T) {
	got := runBenchScript(t, 16).Fleet.K.Stats()
	want := sim.Stats{
		Scheduled: 127290, Fired: 127194, Reschedules: 737,
		BucketsDrained: 33070, RunsMerged: 44775,
		BottomInserts: 25550, BottomShifts: 14354,
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
	perEvent := func(s sim.Stats) float64 { return float64(s.BottomShifts) / float64(s.Fired) }
	perDrain := func(s sim.Stats) float64 { return float64(s.RunsMerged) / float64(s.BucketsDrained) }
	if a, b := perEvent(got), perEvent(huge); b > 2*a {
		t.Errorf("entries shifted in bottom per fired event: %.3f at N=16, %.3f at N=256, want within 2x", a, b)
	}
	if a, b := perDrain(got), perDrain(huge); b > 2*a {
		t.Errorf("runs per drained bucket: %.2f at N=16, %.2f at N=256, want within 2x", a, b)
	}
	t.Logf("N=16/64/256: shifts per event %.3f/%.3f/%.3f, runs per drained bucket %.2f/%.2f/%.2f",
		perEvent(got), perEvent(big), perEvent(huge), perDrain(got), perDrain(big), perDrain(huge))
}
