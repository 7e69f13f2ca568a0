package netsim

import (
	"testing"

	"archadapt/internal/sim"
)

// BenchmarkTransferCycle measures one warm fire-and-forget reply-sized
// transfer on a three-host star, start to completion callback — the unit the
// application's reply streaming repeats per request. Each transfer runs
// alone, so its start and finish take the lone-flow path (regions.go).
func BenchmarkTransferCycle(b *testing.B) {
	k, n, hosts, _ := star(3)
	i := 0
	op := func() {
		n.StartTransferArg(hosts[i%3], hosts[(i+1)%3], 20*8192, "x", func(any) {}, nil)
		k.RunAll(0)
		i++
	}
	for range hosts {
		op() // one per pair: routes memoised, free lists filled
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkSolveLoneFlow measures a reply flow alone on its path while a
// class flow holds another pair of the star. The class flow crosses none of
// the reply's resources, so the start takes the lone-flow path: a minimum of
// available capacity over two hops and one arm, with no region collected.
// The completion's removal dirties nothing and its solve only counts.
func BenchmarkSolveLoneFlow(b *testing.B) {
	k, n, hosts, _ := star(4)
	n.StartClassFlow(hosts[2], hosts[3], 2e6, "class")
	op := func() {
		n.StartTransferArg(hosts[0], hosts[1], 20*8192, "reply", func(any) {}, nil)
		k.RunAll(0)
	}
	op() // route memoised, free list filled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkRoute measures routing on fleet-scale's grid: 513 routers with 4
// hosts each. The cold cases generate the grid untimed and then look up one
// pair from every router, each a first lookup that searches and memoises its
// path: cold to its chain neighbour, which the search reaches after a few
// relays; cold/full to its farthest relay, which runs the search to the end
// (its B/op is the memoised paths with the relay index and the search);
// extend to the neighbour and then the farthest relay, so every search stops
// short and is then resumed. warm/PathHops and warm/AvailBandwidth look up
// one of 1 800 fixed host pairs per op, every one a memo hit.
func BenchmarkRoute(b *testing.B) {
	spec := GridSpec{Routers: 513, HostsPerRouter: 4, Seed: 1}
	g := GenerateGrid(sim.NewKernel(), spec)
	far := make([]NodeID, len(g.Routers))
	for i, r := range g.Routers {
		far[i] = farthestRelay(g.Net, r)
	}
	cold := func(name string, near, full bool) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fresh := GenerateGrid(sim.NewKernel(), spec)
				b.StartTimer()
				for j, r := range fresh.Routers {
					if near {
						routeSink += fresh.Net.PathHops(r, fresh.Routers[(j+1)%len(fresh.Routers)])
					}
					if full {
						routeSink += fresh.Net.PathHops(r, far[j])
					}
				}
			}
		})
	}
	cold("cold", true, false)
	cold("cold/full", false, true)
	cold("extend", true, true)
	rng := sim.NewRand(1)
	const pairs = 1800
	var src, dst [pairs]NodeID
	for i := range src {
		src[i] = g.Hosts[rng.Intn(len(g.Hosts))]
		for dst[i] = src[i]; dst[i] == src[i]; {
			dst[i] = g.Hosts[rng.Intn(len(g.Hosts))]
		}
		routeSink += g.Net.PathHops(src[i], dst[i])
	}
	b.Run("warm/PathHops", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			routeSink += g.Net.PathHops(src[i%pairs], dst[i%pairs])
		}
	})
	b.Run("warm/AvailBandwidth", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bwSink += g.Net.AvailBandwidth(src[i%pairs], dst[i%pairs])
		}
	})
}

var (
	routeSink int
	bwSink    float64
)
