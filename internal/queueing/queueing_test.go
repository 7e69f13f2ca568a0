package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMM1MatchesClosedForm(t *testing.T) {
	// With m=1 the M/M/m formulas reduce to the classic M/M/1: W = 1/(μ-λ),
	// Lq = ρ²/(1-ρ), P(wait) = ρ.
	q := MMm{Lambda: 3, Mu: 5, M: 1}
	rho := 3.0 / 5.0
	if got := q.ErlangC(); math.Abs(got-rho) > 1e-9 {
		t.Fatalf("ErlangC=%v, want %v", got, rho)
	}
	if got := q.MeanResponse(); math.Abs(got-1/(5.0-3.0)) > 1e-9 {
		t.Fatalf("W=%v, want %v", got, 1/(5.0-3.0))
	}
	if got := q.MeanQueueLength(); math.Abs(got-rho*rho/(1-rho)) > 1e-9 {
		t.Fatalf("Lq=%v", got)
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Standard worked example: λ=2/min, μ=1/min per server, m=3 ⇒
	// a=2 Erlangs, C(3,2) = 4/9.
	q := MMm{Lambda: 2, Mu: 1, M: 3}
	if got := q.ErlangC(); math.Abs(got-4.0/9.0) > 1e-9 {
		t.Fatalf("ErlangC=%v, want 4/9", got)
	}
}

func TestUnstableSystem(t *testing.T) {
	q := MMm{Lambda: 10, Mu: 1, M: 3}
	if q.Valid() {
		t.Fatal("ρ>1 should be invalid")
	}
	if !math.IsInf(q.MeanResponse(), 1) {
		t.Fatal("unstable response should be +Inf")
	}
}

// TestEdgeCases pins the degenerate corners surfaced by the open-loop
// engine, which evaluates MeanResponse on whatever (λ, μ, m) the fleet is
// currently in — including saturated and empty groups. Every corner must
// yield a comparable float (0 or +Inf), never NaN.
func TestEdgeCases(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name            string
		q               MMm
		valid           bool
		rho, wq, w, erc float64 // expected; NaN entries are disallowed outputs
	}{
		{"empty system", MMm{Lambda: 0, Mu: 2, M: 3}, true, 0, 0, 0.5, 0},
		{"exactly critical", MMm{Lambda: 6, Mu: 2, M: 3}, false, 1, inf, inf, 1},
		{"overloaded", MMm{Lambda: 10, Mu: 1, M: 3}, false, 10.0 / 3, inf, inf, 1},
		{"zero servers", MMm{Lambda: 1, Mu: 2, M: 0}, false, inf, inf, inf, 1},
		{"zero service rate", MMm{Lambda: 1, Mu: 0, M: 3}, false, inf, inf, inf, 1},
		{"all zero", MMm{}, false, inf, inf, inf, 0},
		{"negative lambda", MMm{Lambda: -1, Mu: 2, M: 3}, false, -1.0 / 6, inf, inf, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.q.Valid(); got != c.valid {
				t.Errorf("Valid=%v, want %v", got, c.valid)
			}
			checks := []struct {
				label     string
				got, want float64
			}{
				{"Utilization", c.q.Utilization(), c.rho},
				{"MeanWait", c.q.MeanWait(), c.wq},
				{"MeanResponse", c.q.MeanResponse(), c.w},
				{"ErlangC", c.q.ErlangC(), c.erc},
			}
			for _, ch := range checks {
				if math.IsNaN(ch.got) {
					t.Errorf("%s is NaN; degenerate inputs must map to 0 or +Inf", ch.label)
					continue
				}
				if math.IsInf(ch.want, 1) {
					if !math.IsInf(ch.got, 1) {
						t.Errorf("%s=%v, want +Inf", ch.label, ch.got)
					}
				} else if math.Abs(ch.got-ch.want) > 1e-12 {
					t.Errorf("%s=%v, want %v", ch.label, ch.got, ch.want)
				}
			}
		})
	}
}

func TestPaperSizing(t *testing.T) {
	// The paper's design inputs: six clients at ~1 req/s each (λ≈6/s),
	// replies around 20 KB with service time ≈0.3–0.45 s (μ≈2.2–3.3/s),
	// bound 2 s. Three servers must suffice — that was the experiment's
	// starting configuration.
	m, q, ok := ServersFor(6, 3.0, 2.0, 10)
	if !ok {
		t.Fatal("no sizing found")
	}
	if m != 3 {
		t.Fatalf("ServersFor=%d (%s), want 3 (the paper's initial deployment)", m, q)
	}
	// And the bandwidth floors: a 2.5 KB reply in 2 s needs the paper's
	// 10 Kbps, a 20 KB one (the load phase's replies) 80 Kbps.
	for _, tc := range []struct{ respBits, want float64 }{
		{2.5 * 8192, 10240},
		{20 * 8192, 81920},
	} {
		if bw := MinBandwidth(tc.respBits, 2.0); math.Abs(bw-tc.want) > 1 {
			t.Errorf("MinBandwidth(%v, 2)=%v, want %v", tc.respBits, bw, tc.want)
		}
	}
}

func TestServersForImpossible(t *testing.T) {
	if _, _, ok := ServersFor(100, 0.5, 0.1, 4); ok {
		t.Fatal("bound cannot be met; ok should be false")
	}
}

// Properties: adding a server never hurts; response is always at least the
// service time; utilization in (0,1) for valid systems.
func TestMonotonicityProperties(t *testing.T) {
	f := func(l8, m8 uint8, m int8) bool {
		lambda := 0.1 + float64(l8)/16
		mu := 0.1 + float64(m8)/16
		m1 := int(m%8) + 1
		q1 := MMm{Lambda: lambda, Mu: mu, M: m1}
		q2 := MMm{Lambda: lambda, Mu: mu, M: m1 + 1}
		if !q1.Valid() {
			return true
		}
		if q1.Utilization() <= 0 || q1.Utilization() >= 1 {
			return false
		}
		if q1.MeanResponse() < 1/mu-1e-12 {
			return false
		}
		if q2.Valid() && q2.MeanResponse() > q1.MeanResponse()+1e-9 {
			return false
		}
		c := q1.ErlangC()
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// MinBandwidth returns the minimum connection bandwidth (bits/sec) that
// keeps the transfer time of a reply of respBits under budget seconds —
// the analysis that produced the paper's 10 Kbps floor.
func MinBandwidth(respBits, budget float64) float64 {
	if budget <= 0 {
		return math.Inf(1)
	}
	return respBits / budget
}
