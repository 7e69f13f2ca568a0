package app

import (
	"math"
	"strings"
	"testing"

	"archadapt/internal/metrics"
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

// mapObserver is LatencyObserver as it was before the outstanding requests
// were threaded through their records: one map of send times per client,
// walked in full by every Sample. It is the oracle the list is checked
// against; it hooks the same listener chains ObserveLatency does.
type mapObserver struct {
	windows     map[string]*metrics.Window
	outstanding map[string]map[uint64]float64
}

func observeWithMaps(sys *System, clients []string, windowWidth float64) *mapObserver {
	o := &mapObserver{
		windows:     map[string]*metrics.Window{},
		outstanding: map[string]map[uint64]float64{},
	}
	for _, name := range clients {
		win, out := metrics.NewWindow(windowWidth), map[uint64]float64{}
		o.windows[name], o.outstanding[name] = win, out
		cli := sys.Client(name)
		cli.OnSend = append(cli.OnSend, func(r *Request) {
			out[r.ID] = r.SentAt
		})
		cli.OnResponse = append(cli.OnResponse, func(r Response) {
			delete(out, r.Req.ID)
			win.Add(r.DoneAt, r.Latency)
		})
	}
	sys.OnDrop = append(sys.OnDrop, func(r *Request) {
		delete(o.outstanding[r.cli.Name], r.ID)
	})
	return o
}

func (o *mapObserver) Outstanding() int {
	n := 0
	for _, m := range o.outstanding {
		n += len(m)
	}
	return n
}

func (o *mapObserver) Sample(name string, now float64) (float64, bool) {
	win := o.windows[name]
	if win == nil {
		return 0, false
	}
	v, ok := win.Avg(now)
	oldest := -1.0
	for _, sentAt := range o.outstanding[name] {
		if age := now - sentAt; age > oldest {
			oldest = age
		}
	}
	if oldest >= 0 && oldest > v {
		v, ok = oldest, true
	}
	return v, ok
}

// The list observer must be indistinguishable from the map observer: the same
// Sample for every client and the same Outstanding, bit for bit, after every
// step of seeded random traffic that reaches each way a request leaves (or
// fails to leave) the outstanding set.
func TestLatencyObserverMatchesMapOracle(t *testing.T) {
	var outOfOrder, movedDrops, vanishedDrops, lost int
	for seed := uint64(1); seed <= 24; seed++ {
		r := newRig(t)
		rng := sim.NewRand(seed)
		sys := r.sys
		// G1: a slow and a fast server, so replies overtake each other.
		// G2: one server that comes and goes. G3: a queue nobody pulls from,
		// where requests are lost. "nowhere": no queue, so requests vanish on
		// arrival at the queue machine.
		for _, g := range []string{"G2", "G3"} {
			if err := sys.CreateQueue(g); err != nil {
				t.Fatal(err)
			}
		}
		sys.AddServer("slow", r.sHost, "G1", 0.8, 0)
		sys.AddServer("fast", r.sHost, "G1", 0.02, 0)
		sys.AddServer("flaky", r.sHost, "G2", 0.1, 0)
		for _, name := range []string{"slow", "fast", "flaky"} {
			if err := sys.Activate(name); err != nil {
				t.Fatal(err)
			}
		}
		names := []string{"C1", "C2", "C3", "C4"}
		starts := []string{"G1", "G1", "G2", "nowhere"}
		for i, name := range names {
			sys.AddClient(name, r.cHost, starts[i], 1.5, rng.Fork(name))
		}
		// An unobserved client shares the queues: its records pass through
		// the same drop hook and must be left alone.
		sys.AddClient("bystander", r.cHost, "G1", 1, rng.Fork("bystander"))

		obs := ObserveLatency(sys, names, 5)
		oracle := observeWithMaps(sys, names, 5)
		for _, name := range names {
			lastID := uint64(0)
			cli := sys.Client(name)
			cli.OnResponse = append(cli.OnResponse, func(resp Response) {
				if resp.Req.ID < lastID {
					outOfOrder++
				}
				lastID = max(lastID, resp.Req.ID)
			})
		}
		sys.OnDrop = append(sys.OnDrop, func(req *Request) {
			if req.q == nil { // no queue at the arrival
				vanishedDrops++
			} else {
				movedDrops++
			}
		})
		agree := func(step int, what string) {
			t.Helper()
			now := r.k.Now()
			if got, want := obs.Outstanding(), oracle.Outstanding(); got != want {
				t.Fatalf("seed %d step %d (%s): Outstanding = %d, oracle %d", seed, step, what, got, want)
			}
			for _, name := range append(names, "bystander") {
				v, ok := obs.Sample(name, now)
				wv, wok := oracle.Sample(name, now)
				if v != wv || ok != wok {
					t.Fatalf("seed %d step %d (%s): Sample(%s, %v) = (%v, %v), oracle (%v, %v)", seed, step, what, name, now, v, ok, wv, wok)
				}
			}
		}

		sys.Start()
		paused := false
		for step := 0; step < 300; step++ {
			var what string
			cli := sys.Client(names[rng.Intn(len(names))])
			switch op := rng.Intn(10); {
			case op < 3:
				what = "send " + cli.Name
				sys.sendRequest(cli)
			case op < 6:
				what = "run"
				r.k.Run(r.k.Now() + rng.Exp(0.3))
			case op == 6:
				to := []string{"G1", "G2", "G3"}[rng.Intn(3)]
				what = "move " + cli.Name + " to " + to
				if err := sys.MoveClient(cli.Name, to); err != nil {
					t.Fatal(err)
				}
			case op == 7:
				what = "toggle flaky"
				if sys.Server("flaky").Active() {
					_ = sys.Deactivate("flaky")
				} else {
					_ = sys.Activate("flaky") // refused while it finishes a request
				}
			default:
				if paused = !paused; paused {
					what = "pause"
					sys.PauseClients()
				} else {
					what = "resume"
					sys.ResumeClients()
				}
			}
			agree(step, what)
		}
		sys.StopClients()
		agree(300, "stop")
		r.k.Run(r.k.Now() + 60)
		agree(301, "drain")
		// Whatever is outstanding a minute after the last send is lost, and
		// has been ageing in both observers alike.
		lost += obs.Outstanding()
	}
	t.Logf("%d overtaking, %d move drops, %d vanished, %d lost", outOfOrder, movedDrops, vanishedDrops, lost)
	if outOfOrder == 0 || movedDrops == 0 || vanishedDrops == 0 || lost == 0 {
		t.Fatalf("traffic too tame to tell the observers apart: %d overtaking replies, %d move drops, %d vanished-queue drops, %d lost requests",
			outOfOrder, movedDrops, vanishedDrops, lost)
	}
}

// A request record has one pair of links, so a client has one observer.
func TestObserveLatencyTwicePanics(t *testing.T) {
	r := newRig(t)
	r.sys.AddClient("C1", r.cHost, "G1", 0, sim.NewRand(1))
	r.sys.AddClient("C2", r.cHost, "G1", 0, sim.NewRand(2))
	ObserveLatency(r.sys, []string{"C1"}, 30)
	ObserveLatency(r.sys, []string{"C2"}, 30) // another client of the same system is fine
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "C1") {
			t.Fatalf("second ObserveLatency over C1: recovered %q, want a panic naming the client", msg)
		}
	}()
	ObserveLatency(r.sys, []string{"C1"}, 30)
}
