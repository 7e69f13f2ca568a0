package arrivals

import (
	"math"
	"testing"

	"archadapt/internal/sim"
)

// Poisson inter-arrival times must be exponential: seeded KS test at the 5%
// level against the analytic Exp(λ) target.
func TestPoissonInterArrivalsKS(t *testing.T) {
	const lambda = 5.0
	p := Poisson{Lambda: lambda}
	r := sim.NewRand(42)
	ts := Sample(p, 2000, Peak(p, 2000), r)
	if len(ts) < 8000 {
		t.Fatalf("sample too small: %d arrivals", len(ts))
	}
	inter := make([]float64, 0, len(ts))
	prev := 0.0
	for _, x := range ts {
		inter = append(inter, x-prev)
		prev = x
	}
	d := KSExponential(inter, lambda)
	if crit := KSCritical(len(inter)); d > crit {
		t.Fatalf("KS statistic %.5f exceeds 5%% critical value %.5f (n=%d)", d, crit, len(inter))
	}
}

// Per-window arrival counts under a constant rate must follow the Poisson
// pmf: seeded chi-square test against the analytic distribution.
func TestPoissonCountsChiSquare(t *testing.T) {
	const lambda, window, horizon = 4.0, 1.0, 2000.0
	p := Poisson{Lambda: lambda}
	r := sim.NewRand(7)
	ts := Sample(p, horizon, Peak(p, horizon), r)
	nWindows := int(horizon / window)
	counts := make([]int, nWindows)
	for _, x := range ts {
		counts[int(x/window)]++
	}
	// Histogram of counts, tail-merged at K so every expected bin is ≥ 5.
	const K = 10
	obs := make([]float64, K+1)
	for _, c := range counts {
		if c > K {
			c = K
		}
		obs[c]++
	}
	exp := make([]float64, K+1)
	tail := 1.0
	for k := 0; k < K; k++ {
		pk := PoissonPMF(k, lambda*window)
		exp[k] = pk * float64(nWindows)
		tail -= pk
	}
	exp[K] = tail * float64(nWindows)
	stat, dof := ChiSquare(obs, exp)
	if crit := ChiSquareCritical(dof); stat > crit {
		t.Fatalf("chi-square %.2f exceeds 5%% critical value %.2f (dof=%d)", stat, crit, dof)
	}
}

// The diurnal envelope (sinusoid × flash-crowd burst) must match its
// analytic target: binned arrival counts vs the integrated rate.
func TestDiurnalEnvelopeChiSquare(t *testing.T) {
	d := Diurnal{
		Base:   5,
		Swing:  0.5,
		Period: 1000,
		Bursts: []Burst{{At: 300, Duration: 100, Factor: 3}},
	}
	const horizon = 1000.0
	r := sim.NewRand(11)
	ts := Sample(d, horizon, Peak(d, horizon), r)
	const bins = 20
	obs := make([]float64, bins)
	for _, x := range ts {
		obs[int(x/(horizon/bins))]++
	}
	exp := make([]float64, bins)
	for i := range exp {
		t0 := horizon * float64(i) / bins
		exp[i] = Integrate(d, t0, t0+horizon/bins, 512)
	}
	stat, dof := ChiSquare(obs, exp)
	if crit := ChiSquareCritical(dof); stat > crit {
		t.Fatalf("chi-square %.2f exceeds 5%% critical value %.2f (dof=%d)", stat, crit, dof)
	}
}

func TestDiurnalEnvelopeShape(t *testing.T) {
	d := Diurnal{Base: 10, Swing: 0.4, Period: 600}
	if got := d.Rate(150); math.Abs(got-14) > 1e-9 {
		t.Fatalf("peak rate %v, want 14", got) // sin peaks at a quarter period
	}
	if got := d.Rate(450); math.Abs(got-6) > 1e-9 {
		t.Fatalf("trough rate %v, want 6", got)
	}
	over := Diurnal{Base: 10, Swing: 1, Period: 600, Bursts: []Burst{{At: 400, Duration: 200, Factor: 2}}}
	for _, tt := range []float64{0, 150, 450, 500, 599} {
		if r := over.Rate(tt); r < 0 {
			t.Fatalf("negative rate %v at t=%v", r, tt)
		}
	}
}

func TestTraceRate(t *testing.T) {
	tr := Trace{Times: []float64{10, 20, 30}, Rates: []float64{1, 5, 2}}
	cases := []struct{ t, want float64 }{
		{0, 0}, {9.999, 0}, {10, 1}, {15, 1}, {20, 5}, {29.9, 5}, {30, 2}, {1e9, 2},
	}
	for _, c := range cases {
		if got := tr.Rate(c.t); got != c.want {
			t.Fatalf("Trace.Rate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestPeakDominates(t *testing.T) {
	procs := []Process{
		Poisson{Lambda: 3},
		Diurnal{Base: 5, Swing: 0.5, Period: 300, Bursts: []Burst{{At: 50, Duration: 20, Factor: 4}}},
		Trace{Times: []float64{0, 10}, Rates: []float64{2, 9}},
	}
	for _, p := range procs {
		peak := Peak(p, 1000)
		for i := 0; i <= 5000; i++ {
			tt := 1000 * float64(i) / 5000
			if r := p.Rate(tt); r > peak+1e-12 {
				t.Fatalf("%T: Rate(%v)=%v exceeds Peak=%v", p, tt, r, peak)
			}
		}
	}
}

func TestIntegrateMatchesClosedForm(t *testing.T) {
	p := Poisson{Lambda: 3}
	if got := Integrate(p, 0, 10, 100); math.Abs(got-30) > 1e-9 {
		t.Fatalf("∫3 dt over 10s = %v, want 30", got)
	}
	d := Diurnal{Base: 2, Swing: 0.5, Period: 100}
	// Over a whole period the sinusoid integrates away: 2·100 = 200.
	if got := Integrate(d, 0, 100, 1000); math.Abs(got-200) > 1e-6 {
		t.Fatalf("∫diurnal over period = %v, want 200", got)
	}
}
