package netsim

import (
	"testing"

	"archadapt/internal/sim"
)

// BenchmarkTransferCycle measures one warm fire-and-forget reply-sized
// transfer on a three-host star, start to completion callback — the unit the
// application's reply streaming repeats per request.
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
// class flow holds another pair of the star: the start fills a one-flow
// component, and the solve after the completion finds no flow on the path it
// leaves, so it reads no link.
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
// hosts each. cold generates the grid untimed and walks once from every
// router, so its B/op is the tree bytes with the relay index and BFS
// scratch. warm/PathHops and warm/AvailBandwidth look up one of 1 800 fixed
// host pairs per op, every tree already built.
func BenchmarkRoute(b *testing.B) {
	spec := GridSpec{Routers: 513, HostsPerRouter: 4, Seed: 1}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := GenerateGrid(sim.NewKernel(), spec)
			b.StartTimer()
			for j, r := range g.Routers {
				routeSink += g.Net.PathHops(r, g.Routers[(j+1)%len(g.Routers)])
			}
		}
	})
	g := GenerateGrid(sim.NewKernel(), spec)
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
