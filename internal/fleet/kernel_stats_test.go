package fleet

import (
	"testing"

	"archadapt/internal/sim"
)

// TestFleetKernelWorkIsFlatPerApp pins the event queues' work counters on the
// benchmark script. Nine in ten schedulings are anonymous and take the
// calendar; the heap keeps the flow completions. The counters are
// deterministic: a change that moves Fired changed what the simulation does,
// one that moves the others changed how the queue is tuned, and either says so
// here. Per app the events fired must not grow with the fleet.
func TestFleetKernelWorkIsFlatPerApp(t *testing.T) {
	got := runBenchScript(t, 16).Fleet.K.Stats()
	want := sim.Stats{
		HeapScheduled: 18294, CalendarScheduled: 144658, Fired: 162856, Reschedules: 737,
		CalendarPops: 144562, BucketsDrained: 10638, BottomInserts: 71145,
		FarRescans: 47, RetunesWider: 1, PeakPending: 1104,
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
}
