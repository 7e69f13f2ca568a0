package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func series(vals ...float64) *Series {
	s := NewSeries("s")
	for i, v := range vals {
		s.Add(float64(i), v)
	}
	return s
}

func TestSeriesStats(t *testing.T) {
	s := series(1, 2, 3, 4, 5)
	if s.Min() != 1 || s.Max() != 5 || s.Mean() != 3 {
		t.Fatalf("min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
	if got := s.FirstAbove(3.5); got != 3 {
		t.Fatalf("firstAbove=%v", got)
	}
	if got := s.FirstAbove(100); got != -1 {
		t.Fatalf("firstAbove(100)=%v", got)
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("e")
	if s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty series stats should be zero")
	}
	if s.FirstAbove(1) != -1 {
		t.Fatal("empty series predicates")
	}
}

func TestCSV(t *testing.T) {
	s := series(1.5, 2.5)
	out := s.CSV()
	if !strings.HasPrefix(out, "# s\n") || !strings.Contains(out, "0.0,1.5") {
		t.Fatalf("csv:\n%s", out)
	}
}

func TestWindow(t *testing.T) {
	w := NewWindow(10)
	if _, ok := w.Avg(0); ok {
		t.Fatal("empty window should not average")
	}
	w.Add(0, 2)
	w.Add(5, 4)
	if avg, ok := w.Avg(6); !ok || avg != 3 {
		t.Fatalf("avg=%v ok=%v", avg, ok)
	}
	// First sample falls out of the window at t=11.
	if avg, _ := w.Avg(11); avg != 4 {
		t.Fatalf("avg=%v, want 4", avg)
	}
	if _, ok := w.Avg(100); ok {
		t.Fatal("expired window should be empty")
	}
}

func TestASCIIPlot(t *testing.T) {
	s1 := series(0.1, 1, 10, 100)
	s2 := series(100, 10, 1, 0.1)
	s2.Name = "s2"
	out := ASCIIPlot("test", []*Series{s1, s2}, 40, 8, true, 0.1, 100)
	if !strings.Contains(out, "test") || !strings.Contains(out, "*=s") || !strings.Contains(out, "o=s2") {
		t.Fatalf("plot:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 10 {
		t.Fatalf("plot too short: %d lines", len(lines))
	}
	if empty := ASCIIPlot("none", []*Series{NewSeries("x")}, 40, 8, false, 0, 1); !strings.Contains(empty, "no data") {
		t.Fatal("empty plot should say so")
	}
}

// Property: Percentile is monotone in p and within the sample range.
func TestDistPercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		var d Dist
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			d.Add(v)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := d.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.N() != 0 {
		t.Fatalf("empty Dist: N=%d", d.N())
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := d.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v", p, got)
		}
	}
}

func TestDistSingleSample(t *testing.T) {
	var d Dist
	d.Add(7.5)
	if d.N() != 1 {
		t.Fatalf("single Dist: N=%d", d.N())
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if got := d.Percentile(p); got != 7.5 {
			t.Fatalf("single Percentile(%v) = %v", p, got)
		}
	}
}

// TestDistPercentileNearestRank: the p-th percentile of n samples is the
// ceil(p/100·n)-th smallest, clamped to the first and the last.
func TestDistPercentileNearestRank(t *testing.T) {
	var d Dist
	for _, v := range []float64{5, 1, 9, 3, 3, 8, 2, 7, 4, 6} {
		d.Add(v)
	}
	// Sorted: 1 2 3 3 4 5 6 7 8 9.
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {5, 1}, {10, 1}, {15, 2}, {30, 3}, {40, 3}, {50, 4}, {95, 9}, {100, 9},
	} {
		if got := d.Percentile(c.p); got != c.want {
			t.Fatalf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Adding after a (sorting) query keeps later queries correct.
	d.Add(0.5)
	if got := d.Percentile(0); got != 0.5 {
		t.Fatalf("post-sort Add: p0 = %v", got)
	}
}

func TestDistMerge(t *testing.T) {
	var a, b Dist
	a.Add(1)
	a.Add(3)
	b.Add(2)
	a.Merge(&b)
	a.Merge(nil)
	a.Merge(&Dist{})
	if a.N() != 3 || a.Percentile(50) != 2 || b.N() != 1 {
		t.Fatalf("merge: aN=%d p50=%v bN=%d", a.N(), a.Percentile(50), b.N())
	}
}
