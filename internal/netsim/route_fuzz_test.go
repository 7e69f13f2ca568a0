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
// a route read off the memo, off the search or off a sibling's memoised
// route; and all of it dropped by a Connect. After every call the memo must
// pass checkMemo.
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
		var dropped uint64 // PathsMaterialised when the memo was last dropped
		connect := func(a, b byte) {
			if a, b := NodeID(int(a)%nodes), NodeID(int(b)%nodes); a != b {
				l := n.Connect(a, b, 10e6, 1e-3)
				dropped = n.RouteStats().PathsMaterialised
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
			checkMemo(t, n, n.RouteStats().PathsMaterialised-dropped)
		}
	})
}

// checkMemo audits the route memo: each source's routes sorted by
// destination without repeats, each the oracle's route, and paths (the
// materialisations since the memo was last dropped) the number of routes it
// holds.
func checkMemo(t *testing.T, n *Network, paths uint64) {
	t.Helper()
	var entries uint64
	for src, from := range n.paths {
		for i, rt := range from {
			if i > 0 && rt.dst <= from[i-1].dst {
				t.Fatalf("memo of %d is not sorted by destination without repeats: %v", src, from)
			}
			if want, ok := oracleRoute(n, NodeID(src), rt.dst); !ok || !slices.Equal(rt.hops, want) {
				t.Fatalf("memoised route(%d,%d) = %v, oracle %v", src, rt.dst, rt.hops, want)
			}
		}
		entries += uint64(len(from))
	}
	if entries != paths {
		t.Fatalf("memo holds %d routes, %d materialised since it was dropped", entries, paths)
	}
}
