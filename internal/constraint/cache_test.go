package constraint_test

import (
	"fmt"
	"testing"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/operators"
	"archadapt/internal/repair"
	"archadapt/internal/sim"
)

// cacheModel builds a small client/server model with every monitored
// property unset, as a manager finds it before the gauges report.
func cacheModel(t testing.TB, clients int) *model.System {
	t.Helper()
	spec := operators.Spec{
		Name: "cache",
		Groups: []operators.GroupSpec{
			{Name: "SG1", Servers: []string{"S1", "S2", "S3"}, ActiveCount: 2},
			{Name: "SG2", Servers: []string{"S4", "S5"}, ActiveCount: 1},
		},
		MaxLatency: 2, MaxServerLoad: 6, MinBandwidth: 10e3,
	}
	for i := 0; i < clients; i++ {
		spec.Clients = append(spec.Clients, operators.ClientSpec{Name: fmt.Sprintf("C%d", i), Group: "SG1"})
	}
	sys, err := operators.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// cacheRegistry registers invariants of every caching class: the manager's
// three (cacheable), a system-scoped one, and ones that must be evaluated on
// every call — a Funcs call, a quantifier, dotted references, a builtin.
// external answers from *tick, which the test moves with no model change.
func cacheRegistry(tick *float64) *constraint.Registry {
	reg := constraint.NewRegistry()
	reg.Funcs["external"] = func([]constraint.Value) (constraint.Value, error) {
		return constraint.Num(*tick), nil
	}
	for _, inv := range []struct{ name, scope, src string }{
		{"latency", operators.TClient, "averageLatency <= maxLatency"},
		{"load", operators.TServerGroup, "load <= maxServerLoad"},
		{"bandwidth", operators.TClientRole, "bandwidth >= minBandwidth"},
		{"thresholds", "", "maxLatency > 0 and !(minBandwidth < 0)"},
		{"typeError", operators.TServerGroup, "load and true"},
		{"negated", operators.TClient, "!(averageLatency > maxLatency * 2)"},
		{"external", operators.TClient, "external(it) < 3"},
		{"everyone", "", "forall c : ClientT in self.Components | c.averageLatency <= maxLatency"},
		{"dotted", operators.TClient, "it.averageLatency <= self.maxLatency"},
		{"roles", operators.TReqConn, "size(it.Roles) <= 4"},
		{"flagged", operators.TClient, `!hasProperty(it, "flag")`},
	} {
		reg.Add(constraint.MustInvariant(inv.name, inv.scope, inv.src))
	}
	return reg
}

// oracle evaluates the registry's invariants from scratch, with nothing
// shared with CheckAll but the expression evaluator.
func oracle(reg *constraint.Registry, sys *model.System) []constraint.Violation {
	var out []constraint.Violation
	check := func(inv *constraint.Invariant, el model.Element) {
		env := constraint.NewEnv(sys)
		env.Funcs = reg.Funcs
		if el != nil {
			env.Bind("it", constraint.Elem(el))
		}
		ok, err := constraint.EvalBool(inv.Expr, env)
		switch {
		case err != nil && !reg.SkipIncomplete:
			out = append(out, constraint.Violation{Invariant: inv, Subject: el, Err: err})
		case err == nil && !ok:
			out = append(out, constraint.Violation{Invariant: inv, Subject: el})
		}
	}
	for _, inv := range reg.Invariants() {
		if inv.Scope == "" {
			check(inv, nil)
			continue
		}
		for _, c := range sys.Components() {
			if c.Type() == inv.Scope {
				check(inv, c)
			}
			for _, p := range c.Ports() {
				if p.Type() == inv.Scope {
					check(inv, p)
				}
			}
		}
		for _, c := range sys.Connectors() {
			if c.Type() == inv.Scope {
				check(inv, c)
			}
			for _, r := range c.Roles() {
				if r.Type() == inv.Scope {
					check(inv, r)
				}
			}
		}
	}
	return out
}

func render(vs []constraint.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
		if v.Subject != nil {
			out[i] += fmt.Sprintf(" @%p", v.Subject)
		}
	}
	return out
}

// sameViolations compares violation lists by invariant, subject identity,
// order and error text.
func sameViolations(t *testing.T, step int, what string, got, want []constraint.Violation) {
	t.Helper()
	g, w := render(got), render(want)
	if len(g) != len(w) {
		t.Fatalf("step %d (%s): cached CheckAll has %d violations, fresh evaluation %d\n got %v\nwant %v", step, what, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] || got[i].Invariant != want[i].Invariant {
			t.Fatalf("step %d (%s): violation %d is %q, fresh evaluation gives %q", step, what, i, g[i], w[i])
		}
	}
}

// TestCheckAllMatchesFreshEvaluation drives one registry, alternated between
// a system and its clone, through random model mutations — property writes
// and deletes, added clients, client moves (the role and attachment edits)
// in committed and aborted transactions, and an external function whose
// answer moves on its own — and
// requires after every step that the cached CheckAll reports exactly what an
// evaluation from scratch does, under both SkipIncomplete settings.
func TestCheckAllMatchesFreshEvaluation(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		var tick float64
		reg := cacheRegistry(&tick)
		systems := []*model.System{cacheModel(t, 6)}
		systems = append(systems, systems[0].Clone())
		extra := 0
		for step := 0; step < 600; step++ {
			sys := systems[0]
			if rng.Intn(10) == 0 {
				sys = systems[1] // the registry's caches describe the other one
			}
			clients := sys.ComponentsByType(operators.TClient)
			cli := clients[rng.Intn(len(clients))]
			groups := sys.ComponentsByType(operators.TServerGroup)
			grp := groups[rng.Intn(len(groups))]
			val := float64(rng.Intn(8)) / 2
			var what string
			switch rng.Intn(12) {
			case 0:
				what = "set latency"
				cli.Props().Set(operators.PropAvgLatency, val)
			case 1:
				what = "set load"
				grp.Props().SetFloat(operators.PropLoad, val*3)
			case 2:
				what = "set bandwidth"
				if _, _, role, err := operators.GroupOf(sys, cli); err == nil {
					role.Props().Set(operators.PropBandwidth, val*5e3)
				}
			case 3:
				what = "delete latency"
				cli.Props().Delete(operators.PropAvgLatency)
			case 4:
				what = "set threshold"
				sys.Props().Set(operators.PropMaxLatency, 1+val)
			case 5:
				what = "retype load"
				grp.Props().Set(operators.PropLoad, val > 2)
			case 6:
				what = "flag"
				if cli.Props().Has("flag") {
					cli.Props().Delete("flag")
				} else {
					cli.Props().Set("flag", "x")
				}
			case 7:
				what = "add client"
				extra++
				c := sys.AddComponent(fmt.Sprintf("X%d", extra), operators.TClient)
				c.AddPort("request", operators.TRequestPort)
			case 8, 9, 10:
				// The structure edits: a move removes the client's role,
				// adds one on the target connector and re-attaches; an
				// abort restores the role and the attachment.
				what = "move client"
				if p := cli.Port("request"); p == nil {
					break
				} else if _, n := sys.PortAttachment(p); n == 0 {
					break
				}
				cur, _, _, err := operators.GroupOf(sys, cli)
				if err != nil {
					t.Fatal(err)
				}
				to := groups[0]
				if to == cur {
					to = groups[1]
				}
				txn := repair.NewTxn(sys)
				if err := operators.MoveClient(txn, sys, cli, to, val*4e3); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					what = "move client, aborted"
					sameViolations(t, step, "mid-transaction", reg.CheckAll(sys), oracle(reg, sys))
					if err := txn.Abort(); err != nil {
						t.Fatal(err)
					}
				}
			case 11:
				what = "external answer moves"
				tick = float64(rng.Intn(6))
			}
			reg.SkipIncomplete = rng.Intn(3) != 0
			sameViolations(t, step, what, reg.CheckAll(sys), oracle(reg, sys))
			for i, inv := range reg.Invariants() {
				if i%3 == step%3 { // and the public per-invariant form, on a rotating third
					var want []constraint.Violation
					for _, v := range oracle(reg, sys) {
						if v.Invariant == inv {
							want = append(want, v)
						}
					}
					sameViolations(t, step, what+", Check "+inv.Name, inv.Check(sys, reg.Funcs, reg.SkipIncomplete), want)
				}
			}
		}
		st := reg.Stats()
		if st.Reused == 0 || st.ScopeRebuilds < 2 || st.Evaluated == 0 {
			t.Fatalf("seed %d: the walk never exercised the cache: %+v", seed, st)
		}
	}
}

// TestFuncsAreReadPerCall covers two things the registry used to get wrong:
// a Funcs map assigned after the first CheckAll was ignored, and an
// invariant calling into Funcs must see the function's current answer even
// when the model has not changed.
func TestFuncsAreReadPerCall(t *testing.T) {
	sys := cacheModel(t, 2)
	reg := constraint.NewRegistry()
	reg.Add(constraint.MustInvariant("ext", operators.TClient, "allowed(it)"))
	reg.SkipIncomplete = false
	if vs := reg.CheckAll(sys); len(vs) != 2 || vs[0].Err == nil {
		t.Fatalf("unknown function: %v", vs)
	}
	allow := true
	reg.Funcs = map[string]func([]constraint.Value) (constraint.Value, error){
		"allowed": func([]constraint.Value) (constraint.Value, error) { return constraint.Bool(allow), nil },
	}
	if vs := reg.CheckAll(sys); len(vs) != 0 {
		t.Fatalf("Funcs assigned after the first CheckAll were ignored: %v", vs)
	}
	allow = false
	if vs := reg.CheckAll(sys); len(vs) != 2 {
		t.Fatalf("a Funcs verdict was served from cache: %v", vs)
	}
	if st := reg.Stats(); st.Reused != 0 {
		t.Fatalf("a function-calling invariant was reused: %+v", st)
	}
}

// TestRegistryHoldsOneSystem checks that pointing the registry at another
// system lets go of the first: its verdict cache must not keep a retired
// system's elements alive.
func TestRegistryHoldsOneSystem(t *testing.T) {
	reg := constraint.NewRegistry()
	reg.Add(constraint.MustInvariant("latency", operators.TClient, "averageLatency <= maxLatency"))
	a, b := cacheModel(t, 3), cacheModel(t, 3)
	for _, c := range a.ComponentsByType(operators.TClient) {
		c.Props().Set(operators.PropAvgLatency, 5.0)
	}
	if vs := reg.CheckAll(a); len(vs) != 3 {
		t.Fatalf("a: %v", vs)
	}
	if vs := reg.CheckAll(b); len(vs) != 0 {
		t.Fatalf("b reported a's verdicts: %v", vs)
	}
	if vs := reg.CheckAll(a); len(vs) != 3 || vs[0].Subject != model.Element(a.Component("C0")) {
		t.Fatalf("back on a: %v", vs)
	}
	if st := reg.Stats(); st.ScopeRebuilds != 3 || st.Reused != 0 {
		t.Fatalf("each switch must rebuild from nothing: %+v", st)
	}
}

// TestCheckAllStats pins the counters on a known sequence.
func TestCheckAllStats(t *testing.T) {
	sys := cacheModel(t, 4)
	reg := constraint.NewRegistry()
	reg.Add(constraint.MustInvariant("latency", operators.TClient, "averageLatency <= maxLatency"))
	reg.Add(constraint.MustInvariant("load", operators.TServerGroup, "load <= maxServerLoad"))
	want := func(what string, s constraint.Stats) {
		t.Helper()
		if got := reg.Stats(); got != s {
			t.Fatalf("%s: stats %+v, want %+v", what, got, s)
		}
	}
	reg.CheckAll(sys)
	want("cold", constraint.Stats{Checks: 1, Evaluated: 6, ScopeRebuilds: 1})
	reg.CheckAll(sys)
	want("unchanged", constraint.Stats{Checks: 2, Evaluated: 6, Reused: 6, ScopeRebuilds: 1})
	sys.Component("C1").Props().Set(operators.PropAvgLatency, 1.0)
	reg.CheckAll(sys)
	want("one property", constraint.Stats{Checks: 3, Evaluated: 7, Reused: 11, ScopeRebuilds: 1})
	sys.Component("C1").Props().Set(operators.PropAvgLatency, 1.0)
	reg.CheckAll(sys)
	want("same value rewritten", constraint.Stats{Checks: 4, Evaluated: 7, Reused: 17, ScopeRebuilds: 1})
	sys.Props().Set(operators.PropMaxLatency, 3.0)
	reg.CheckAll(sys)
	want("system property", constraint.Stats{Checks: 5, Evaluated: 13, Reused: 17, ScopeRebuilds: 1})
	sys.AddComponent("late", operators.TClient)
	reg.CheckAll(sys)
	want("structure", constraint.Stats{Checks: 6, Evaluated: 20, Reused: 17, ScopeRebuilds: 2})
}

// inBoundsModel builds the warm control-loop fixture: a cacheModel with every
// property the manager's three invariants read set in bounds, a registry
// holding those invariants, and clean — one CheckAll that fails the test on any
// violation. It has run once, so every verdict is cached.
func inBoundsModel(t testing.TB, n int) (sys *model.System, reg *constraint.Registry, clients []*model.Component, clean func()) {
	t.Helper()
	sys = cacheModel(t, n)
	reg = constraint.NewRegistry()
	reg.Add(constraint.MustInvariant(operators.InvLatency, operators.TClient, "averageLatency <= maxLatency"))
	reg.Add(constraint.MustInvariant(operators.InvLoad, operators.TServerGroup, "load <= maxServerLoad"))
	reg.Add(constraint.MustInvariant(operators.InvBandwidth, operators.TClientRole, "bandwidth >= minBandwidth"))
	clients = sys.ComponentsByType(operators.TClient)
	for _, c := range clients {
		c.Props().Set(operators.PropAvgLatency, 1.0)
		_, _, role, _ := operators.GroupOf(sys, c)
		role.Props().Set(operators.PropBandwidth, 5e6)
	}
	clean = func() {
		if vs := reg.CheckAll(sys); vs != nil {
			t.Fatalf("violations on an in-bounds model: %v", vs)
		}
	}
	clean()
	return sys, reg, clients, clean
}

// TestCheckAllAllocationFree: a clean warm pass allocates nothing, whether
// every verdict is reused or a gauge has just rewritten some.
func TestCheckAllAllocationFree(t *testing.T) {
	sys, reg, clients, clean := inBoundsModel(t, 16)
	if avg := testing.AllocsPerRun(100, clean); avg != 0 {
		t.Errorf("unchanged model: %v allocs per CheckAll, want 0", avg)
	}
	i := 0
	changed := func() {
		i++
		clients[i%len(clients)].Props().SetFloat(operators.PropAvgLatency, 1+float64(i%7)/10)
		sys.Component("SG1").Props().SetFloat(operators.PropLoad, float64(i%5))
		clean()
	}
	before := reg.Stats().Evaluated
	if avg := testing.AllocsPerRun(100, changed); avg != 0 {
		t.Errorf("changed model: %v allocs per CheckAll, want 0", avg)
	}
	if ran := reg.Stats().Evaluated - before; ran < 100 || ran > 2*101 {
		t.Errorf("changed model: %d evaluations over 101 passes, want one or two per pass", ran)
	}

	// A standing violation — the tick on which no repair applies — is
	// reported into the registry's own slice, not a fresh one.
	clients[0].Props().SetFloat(operators.PropAvgLatency, 9)
	standing := func() {
		if vs := reg.CheckAll(sys); len(vs) != 1 || vs[0].Subject != model.Element(clients[0]) {
			t.Fatalf("want the one standing violation on %s, got %v", clients[0].Name(), vs)
		}
	}
	standing()
	if avg := testing.AllocsPerRun(100, standing); avg != 0 {
		t.Errorf("standing violation: %v allocs per CheckAll, want 0", avg)
	}
	clients[0].Props().SetFloat(operators.PropAvgLatency, 1)
	clean()
}
