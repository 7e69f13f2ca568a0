// Package metrics provides time-series capture and summary statistics for
// the experiment harness: the series behind Figures 8–13 and the aggregate
// rows recorded in EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a sampled time series.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// NewSeries creates an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// At returns sample i.
func (s *Series) At(i int) (t, v float64) { return s.T[i], s.V[i] }

// Max returns the maximum value (0 for empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.V {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum value (0 for empty series).
func (s *Series) Min() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V {
		if v < m {
			m = v
		}
	}
	return m
}

// Mean returns the mean value (0 for empty series).
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// Dist is an order-free sample distribution with lazily sorted percentile
// queries — the observability plane's phase-latency histograms. The zero
// value is an empty distribution ready for use.
type Dist struct {
	vs     []float64
	sorted bool
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.vs = append(d.vs, v)
	d.sorted = false
}

// Merge folds all of o's samples into d.
func (d *Dist) Merge(o *Dist) {
	if o == nil || len(o.vs) == 0 {
		return
	}
	d.vs = append(d.vs, o.vs...)
	d.sorted = false
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.vs) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by nearest rank,
// 0 when empty. Sorting is amortized: samples are sorted in place on the
// first query after an Add.
func (d *Dist) Percentile(p float64) float64 {
	if len(d.vs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.vs)
		d.sorted = true
	}
	idx := int(math.Ceil(p/100*float64(len(d.vs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.vs) {
		idx = len(d.vs) - 1
	}
	return d.vs[idx]
}

// FirstAbove returns the first time the series exceeds threshold, or -1.
func (s *Series) FirstAbove(threshold float64) float64 {
	for i, v := range s.V {
		if v > threshold {
			return s.T[i]
		}
	}
	return -1
}

// CSV renders "t,v" lines.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for i := range s.T {
		fmt.Fprintf(&b, "%.1f,%.6g\n", s.T[i], s.V[i])
	}
	return b.String()
}

// Window is a sliding-window average over (time, value) samples: the latency
// gauge's averageLatency and the harness's ground-truth latency series are
// both computed by it.
type Window struct {
	Width   float64
	samples []struct{ t, v float64 }
}

// NewWindow creates a window of the given width in seconds.
func NewWindow(width float64) *Window { return &Window{Width: width} }

// Add appends a sample.
func (w *Window) Add(t, v float64) {
	w.samples = append(w.samples, struct{ t, v float64 }{t, v})
}

// Avg returns the average of samples within [now-Width, now]; ok is false
// when the window is empty.
func (w *Window) Avg(now float64) (avg float64, ok bool) {
	cutoff := now - w.Width
	kept := w.samples[:0]
	for _, s := range w.samples {
		if s.t >= cutoff {
			kept = append(kept, s)
		}
	}
	w.samples = kept
	if len(w.samples) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, s := range w.samples {
		sum += s.v
	}
	return sum / float64(len(w.samples)), true
}

// ASCIIPlot renders a crude log-scale plot of several series, one glyph per
// series — enough to eyeball the Figures 8–13 shapes in a terminal.
func ASCIIPlot(title string, series []*Series, width, height int, logScale bool, yMin, yMax float64) string {
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 16
	}
	glyphs := "*o+x#@%&"
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	tMin, tMax := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if s.Len() == 0 {
			continue
		}
		if s.T[0] < tMin {
			tMin = s.T[0]
		}
		if s.T[s.Len()-1] > tMax {
			tMax = s.T[s.Len()-1]
		}
	}
	if math.IsInf(tMin, 1) {
		return title + ": (no data)\n"
	}
	yval := func(v float64) float64 {
		if logScale {
			if v < yMin {
				v = yMin
			}
			return math.Log10(v)
		}
		return v
	}
	lo, hi := yval(yMin), yval(yMax)
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.T {
			x := int(float64(width-1) * (s.T[i] - tMin) / math.Max(tMax-tMin, 1e-9))
			yv := yval(s.V[i])
			if yv < lo {
				yv = lo
			}
			if yv > hi {
				yv = hi
			}
			y := height - 1 - int(float64(height-1)*(yv-lo)/math.Max(hi-lo, 1e-9))
			if x >= 0 && x < width && y >= 0 && y < height {
				grid[y][x] = g
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [y: %.4g .. %.4g%s, x: %.0fs .. %.0fs]\n", title, yMin, yMax,
		map[bool]string{true: " log", false: ""}[logScale], tMin, tMax)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", glyphs[si%len(glyphs)], s.Name))
	}
	b.WriteString("  " + strings.Join(legend, "  ") + "\n")
	return b.String()
}
