package archadapt

import (
	"math"
	"strings"
	"testing"

	"archadapt/internal/experiment"
)

// The facade tests exercise the public API end to end, the way the commands
// do; example_test.go runs Deploy the way a caller would.

func TestFacadeExperimentRoundTrip(t *testing.T) {
	control := RunExperiment(ExperimentOptions{Seed: 3, Duration: 700})
	adaptive := RunExperiment(ExperimentOptions{Adaptive: true, Seed: 3, Duration: 700})
	if control.Summarize().Repairs != 0 {
		t.Fatal("control repaired")
	}
	if adaptive.Summarize().Repairs == 0 {
		t.Fatal("adaptive did not repair")
	}
	out := CompareRuns(control, adaptive)
	if !strings.Contains(out, "adaptive") {
		t.Fatalf("comparison:\n%s", out)
	}
	if plot := RenderFigure(experiment.Figure8, control); len(plot) < 100 {
		t.Fatal("figure render failed")
	}
}

func TestFacadeDeployErrors(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k)
	h := net.AddHost("h")
	spec := Spec{
		Name:    "t",
		Groups:  []GroupSpec{{Name: "G", Servers: []string{"S1"}, ActiveCount: 1}},
		Clients: []ClientSpec{{Name: "C1", Group: "G"}},
	}
	if _, err := Deploy(k, net, spec, Placement{
		ClientHosts: map[string]NodeID{"C1": h},
		QueueHost:   h, ManagerHost: h,
	}, 1); err == nil {
		t.Fatal("missing server host should fail")
	}
	if _, err := Deploy(k, net, spec, Placement{
		ServerHosts: map[string]NodeID{"S1": h},
		QueueHost:   h, ManagerHost: h,
	}, 1); err == nil {
		t.Fatal("missing client host should fail")
	}
	// A non-finite or negative number in the placement is an error, not a
	// kernel panic at the first event or a run that never returns.
	for name, set := range map[string]func(*Placement){
		"NaN ClientRate":          func(pl *Placement) { pl.ClientRate = math.NaN() },
		"+Inf ClientRate":         func(pl *Placement) { pl.ClientRate = math.Inf(1) },
		"negative ClientRate":     func(pl *Placement) { pl.ClientRate = -1 },
		"NaN ServiceBase":         func(pl *Placement) { pl.ServiceBase = math.NaN() },
		"-Inf ServicePerBit":      func(pl *Placement) { pl.ServicePerBit = math.Inf(-1) },
		"NaN ClientRespBits":      func(pl *Placement) { pl.ClientRespBits = math.NaN() },
		"negative ClientRespBits": func(pl *Placement) { pl.ClientRespBits = -8192 },
	} {
		pl := Placement{
			ServerHosts: map[string]NodeID{"S1": h},
			ClientHosts: map[string]NodeID{"C1": h},
			QueueHost:   h, ManagerHost: h,
		}
		set(&pl)
		if _, err := Deploy(k, net, spec, pl, 1); err == nil || !strings.HasPrefix(err.Error(), "operators: ") {
			t.Errorf("%s: err %v, want an operators: error", name, err)
		}
	}
}

// A spec that repeats a name is an error from Deploy, not a panic from the
// process layer or the model.
func TestFacadeDeployRejectsRepeatedNames(t *testing.T) {
	k := NewKernel()
	net := NewNetwork(k)
	h := net.AddHost("h")
	pl := Placement{
		ServerHosts: map[string]NodeID{"S1": h, "S2": h},
		ClientHosts: map[string]NodeID{"C1": h, "G": h},
		QueueHost:   h, ManagerHost: h,
	}
	for name, spec := range map[string]Spec{
		"repeated client": {
			Groups:  []GroupSpec{{Name: "G", Servers: []string{"S1"}, ActiveCount: 1}},
			Clients: []ClientSpec{{Name: "C1", Group: "G"}, {Name: "C1", Group: "G"}},
		},
		"server in two groups": {
			Groups: []GroupSpec{
				{Name: "G", Servers: []string{"S1"}, ActiveCount: 1},
				{Name: "G2", Servers: []string{"S1", "S2"}, ActiveCount: 1},
			},
			Clients: []ClientSpec{{Name: "C1", Group: "G"}},
		},
		"client named like a group": {
			Groups:  []GroupSpec{{Name: "G", Servers: []string{"S1"}, ActiveCount: 1}},
			Clients: []ClientSpec{{Name: "G", Group: "G"}},
		},
	} {
		if _, err := Deploy(k, net, spec, pl, 1); err == nil || !strings.HasPrefix(err.Error(), "operators: ") {
			t.Errorf("%s: err %v, want an operators: error", name, err)
		}
	}
}
