package app

import (
	"math"
	"testing"

	"archadapt/internal/sim"
)

func TestLatencyObserverSample(t *testing.T) {
	for _, tc := range []struct {
		name string
		// drive runs the rig with C1 observed and returns the client to
		// sample; sampling happens at t=10.
		drive  func(t *testing.T, r *rig, c1 *Client) string
		wantOK bool
		check  func(v float64) bool
	}{
		{
			name:  "client that was never observed",
			drive: func(*testing.T, *rig, *Client) string { return "nobody" },
		},
		{
			name:  "observed client with no traffic",
			drive: func(*testing.T, *rig, *Client) string { return "C1" },
		},
		{
			name: "completed responses average over the window",
			drive: func(t *testing.T, r *rig, c1 *Client) string {
				r.addActiveServer(t, "S1")
				r.k.At(1, func() { r.sys.sendRequest(c1) })
				return "C1"
			},
			wantOK: true,
			check:  func(v float64) bool { return v > 0.05 && v < 0.5 },
		},
		{
			name: "wedged client reports the age of its oldest request",
			drive: func(t *testing.T, r *rig, c1 *Client) string {
				// No active server: both requests sit in the queue.
				r.k.At(2, func() { r.sys.sendRequest(c1) })
				r.k.At(6, func() { r.sys.sendRequest(c1) })
				return "C1"
			},
			wantOK: true,
			check:  func(v float64) bool { return math.Abs(v-8) < 1e-9 },
		},
		{
			name: "dropped requests are no longer outstanding",
			drive: func(t *testing.T, r *rig, c1 *Client) string {
				if err := r.sys.CreateQueue("G2"); err != nil {
					t.Fatal(err)
				}
				r.k.At(2, func() { r.sys.sendRequest(c1) })
				r.k.At(5, func() {
					if err := r.sys.MoveClient("C1", "G2"); err != nil {
						t.Fatal(err)
					}
				})
				return "C1"
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			c1 := r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
			obs := ObserveLatency(r.sys, []string{"C1"}, 30)
			name := tc.drive(t, r, c1)
			r.k.Run(10)
			v, ok := obs.Sample(name, 10)
			if ok != tc.wantOK || (ok && !tc.check(v)) || (!ok && v != 0) {
				t.Fatalf("Sample(%q) = (%v, %v), want ok=%v", name, v, ok, tc.wantOK)
			}
		})
	}
}
