package netsim

import (
	"fmt"
	"slices"
	"testing"

	"archadapt/internal/sim"
)

// FuzzRouteLookups decodes a small graph and an interleaved sequence of
// route, AvailBandwidth, PathHops and Connect calls, and checks every answer
// against oracleRoute: the hops, the hop count and the bottleneck, or the
// "no route" panic. Interleaving reaches the states one lookup leaves the
// next: a search kept warm for one root and resumed, or cleared for another;
// a row grown sparse, then rewritten in place or switched to dense; a route
// read off a row, off the search or off a sibling's memoised route; and all
// of it dropped by a Connect. After every call the retained rows must be
// well formed and TableEntries must count their labels.
func FuzzRouteLookups(f *testing.F) {
	f.Add([]byte{6, 5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 0, 5, 2, 5, 0, 1, 0, 4, 3, 1, 5})
	f.Add([]byte{9, 8, 0, 1, 1, 2, 2, 0, 3, 0, 4, 1, 5, 2, 6, 2, 7, 5, 1, 3, 6, 0, 4, 7, 2, 6, 3, 3, 7, 8, 0, 3, 8})
	f.Add([]byte{5, 2, 0, 1, 2, 3, 0, 0, 3, 1, 1, 2, 3, 1, 2, 0, 0, 2})
	f.Add([]byte{11, 12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 0, 0, 5, 1, 0, 6, 0, 0, 3, 2, 9, 1, 7, 4, 0, 8, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		nodes := 2 + int(data[0])%10
		n := New(sim.NewKernel())
		for i := 0; i < nodes; i++ {
			n.AddHost(fmt.Sprintf("n%d", i))
		}
		connect := func(a, b byte) {
			if a, b := NodeID(int(a)%nodes), NodeID(int(b)%nodes); a != b {
				l := n.Connect(a, b, 10e6, 1e-3)
				n.SetBackground(l, Fwd, float64(int(l)*7%10)*1e6)
				n.SetBackground(l, Rev, float64(int(l)*3%10)*1e6)
			}
		}
		links, rest := int(data[1])%16, data[2:]
		for ; links > 0 && len(rest) >= 2; links, rest = links-1, rest[2:] {
			connect(rest[0], rest[1])
		}
		for ; len(rest) >= 3; rest = rest[3:] {
			op, src, dst := rest[0]%4, NodeID(int(rest[1])%nodes), NodeID(int(rest[2])%nodes)
			if op == 3 {
				connect(rest[1], rest[2])
				continue
			}
			want, ok := oracleRoute(n, src, dst)
			wantMsg := ""
			if !ok {
				wantMsg = fmt.Sprintf("netsim: no route %s -> %s", n.nodes[src].Name, n.nodes[dst].Name)
			}
			msg := panicText(func() {
				switch op {
				case 0:
					if got := n.route(src, dst); !slices.Equal(got, want) {
						t.Fatalf("route(%d,%d) = %v, oracle %v", src, dst, got, want)
					}
				case 1:
					if got, w := n.AvailBandwidth(src, dst), oracleAvail(n, want); got != w {
						t.Fatalf("AvailBandwidth(%d,%d) = %v, oracle %v", src, dst, got, w)
					}
				case 2:
					if got := n.PathHops(src, dst); got != len(want) {
						t.Fatalf("PathHops(%d,%d) = %d, oracle %d", src, dst, got, len(want))
					}
				}
			})
			if msg != wantMsg {
				t.Fatalf("op %d (%d,%d): panic %q, want %q", op, src, dst, msg, wantMsg)
			}
			checkRows(t, n)
		}
	})
}

// checkRows audits the retained rows: each nil, dense (one entry per relay,
// at least half of them labels) or sparse (fewer than half the relays'
// labels, sorted by relay without repeats), its root labelled with a state
// and every other label a hop into that relay; and TableEntries the sum of
// their labels.
func checkRows(t *testing.T, n *Network) {
	t.Helper()
	var entries uint64
	for ra, row := range n.rows {
		if row == nil {
			continue
		}
		dense := len(row) == int(n.relays)
		if !dense && (len(row)%2 != 0 || len(row) >= int(n.relays)) {
			t.Fatalf("row %d has %d entries over %d relays", ra, len(row), n.relays)
		}
		labels := 0
		for r := int32(0); r < n.relays; r++ {
			hop := label(row, dense, r)
			if hop != -1 || r == int32(ra) {
				labels++
			}
			switch {
			case r == int32(ra):
				if hop != partial && hop != finished {
					t.Fatalf("row %d: root state %d", ra, hop)
				}
			case hop >= 0:
				if ri := hop ^ 1; n.res[ri].from != r {
					t.Fatalf("row %d: label %d of relay %d leaves relay %d", ra, hop, r, n.res[ri].from)
				}
			case hop != -1:
				t.Fatalf("row %d: relay %d labelled %d", ra, r, hop)
			}
		}
		if dense && 2*labels < int(n.relays) {
			t.Fatalf("dense row %d holds %d labels over %d relays, want at least half", ra, labels, n.relays)
		}
		if !dense {
			for i := 2; i < len(row); i += 2 {
				if row[i] <= row[i-2] {
					t.Fatalf("sparse row %d is not sorted by relay: %v", ra, row)
				}
			}
		}
		entries += n.entries(row)
	}
	if got := n.RouteStats().TableEntries; got != entries {
		t.Fatalf("TableEntries = %d, rows hold %d", got, entries)
	}
}
