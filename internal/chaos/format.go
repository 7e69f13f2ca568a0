package chaos

import (
	"fmt"
	"strings"

	"archadapt/internal/fleet"
)

// FormatOptions renders a scenario as a ready-to-paste Go literal — the
// form a shrunk reproducer is reported in, and the form a promoted find is
// committed to the catalog in. Only non-zero fields are emitted, so a
// minimal reproducer reads as small as it is.
func FormatOptions(o fleet.ScenarioOptions) string {
	var b strings.Builder
	b.WriteString("fleet.ScenarioOptions{\n")
	w := func(format string, args ...any) { fmt.Fprintf(&b, "\t"+format+",\n", args...) }
	if o.Apps != 0 {
		w("Apps: %d", o.Apps)
	}
	for i, s := range o.AppMix {
		if i == 0 {
			b.WriteString("\tAppMix: []fleet.AppSpec{\n")
		}
		fmt.Fprintf(&b, "\t\t{Groups: %d, ServersPerGroup: %d, SparesPerGroup: %d, Clients: %d, ClientRate: %g%s},\n",
			s.Groups, s.ServersPerGroup, s.SparesPerGroup, s.Clients, s.ClientRate, arrivalsLiteral(s.Arrivals))
		if i == len(o.AppMix)-1 {
			b.WriteString("\t},\n")
		}
	}
	if o.Routers != 0 {
		w("Routers: %d", o.Routers)
	}
	if o.HostsPerRouter != 0 {
		w("HostsPerRouter: %d", o.HostsPerRouter)
	}
	if o.SpareRouters != 0 {
		w("SpareRouters: %d", o.SpareRouters)
	}
	if o.HostCapacity != 0 {
		w("HostCapacity: %d", o.HostCapacity)
	}
	w("Seed: %d", o.Seed)
	if o.Duration != 0 {
		w("Duration: %g", o.Duration)
	}
	if o.AdmitStagger != 0 {
		w("AdmitStagger: %g", o.AdmitStagger)
	}
	if o.AdmitWaves != 0 {
		w("AdmitWaves: %d", o.AdmitWaves)
	}
	if o.WavePeriod != 0 {
		w("WavePeriod: %g", o.WavePeriod)
	}
	if o.RetireAfter != 0 {
		w("RetireAfter: %g", o.RetireAfter)
	}
	if o.CrushStart != 0 {
		w("CrushStart: %g", o.CrushStart)
	}
	if o.Adaptive {
		w("Adaptive: true")
	}
	if p := o.Migration; p.Enabled {
		fmt.Fprintf(&b, "\tMigration: fleet.MigrationPolicy{Enabled: true")
		if p.Ranked {
			b.WriteString(", Ranked: true")
		}
		if p.CheckPeriod != 0 {
			fmt.Fprintf(&b, ", CheckPeriod: %g", p.CheckPeriod)
		}
		if p.Patience != 0 {
			fmt.Fprintf(&b, ", Patience: %d", p.Patience)
		}
		if p.Cooldown != 0 {
			fmt.Fprintf(&b, ", Cooldown: %g", p.Cooldown)
		}
		if p.MaxConcurrent != 0 {
			fmt.Fprintf(&b, ", MaxConcurrent: %d", p.MaxConcurrent)
		}
		b.WriteString("},\n")
	}
	if p := o.OpenLoop; p.Enabled {
		fmt.Fprintf(&b, "\tOpenLoop: fleet.OpenLoopPolicy{Enabled: true")
		if p.Users != 0 {
			fmt.Fprintf(&b, ", Users: %d", p.Users)
		}
		if p.AdjustPeriod != 0 {
			fmt.Fprintf(&b, ", AdjustPeriod: %g", p.AdjustPeriod)
		}
		if s := p.Scale; s.Enabled {
			fmt.Fprintf(&b, ", Scale: fleet.ScalePolicy{Enabled: true")
			if s.UpAt != 0 {
				fmt.Fprintf(&b, ", UpAt: %g", s.UpAt)
			}
			if s.DownAt != 0 {
				fmt.Fprintf(&b, ", DownAt: %g", s.DownAt)
			}
			if s.Cooldown != 0 {
				fmt.Fprintf(&b, ", Cooldown: %g", s.Cooldown)
			}
			if s.MaxReplicas != 0 {
				fmt.Fprintf(&b, ", MaxReplicas: %d", s.MaxReplicas)
			}
			b.WriteString("}")
		}
		if a := p.Admission; a.Enabled {
			fmt.Fprintf(&b, ", Admission: fleet.AdmissionPolicy{Enabled: true")
			if a.MaxUtilization != 0 {
				fmt.Fprintf(&b, ", MaxUtilization: %g", a.MaxUtilization)
			}
			if a.Queue {
				b.WriteString(", Queue: true")
			}
			if a.RetryPeriod != 0 {
				fmt.Fprintf(&b, ", RetryPeriod: %g", a.RetryPeriod)
			}
			b.WriteString("}")
		}
		b.WriteString("},\n")
	}
	for i, flt := range o.Faults {
		if i == 0 {
			b.WriteString("\tFaults: []fleet.Fault{\n")
		}
		b.WriteString("\t\t{")
		fmt.Fprintf(&b, "At: %g, Kind: %s", flt.At, faultKindIdent(flt.Kind))
		if flt.App != 0 {
			fmt.Fprintf(&b, ", App: %d", flt.App)
		}
		if flt.Router != 0 {
			fmt.Fprintf(&b, ", Router: %d", flt.Router)
		}
		if flt.Fraction != 0 {
			fmt.Fprintf(&b, ", Fraction: %g", flt.Fraction)
		}
		if flt.LeaveBps != 0 {
			fmt.Fprintf(&b, ", LeaveBps: %g", flt.LeaveBps)
		}
		if flt.Duration != 0 {
			fmt.Fprintf(&b, ", Duration: %g", flt.Duration)
		}
		b.WriteString("},\n")
		if i == len(o.Faults)-1 {
			b.WriteString("\t},\n")
		}
	}
	b.WriteString("}")
	return b.String()
}

// arrivalsLiteral renders an AppSpec's arrival process as a ", Arrivals:
// ..." literal suffix, or "" for the zero spec.
func arrivalsLiteral(s fleet.ArrivalSpec) string {
	var b strings.Builder
	zero := fleet.ArrivalSpec{}
	if s.Kind == zero.Kind && s.Lambda == zero.Lambda && s.Base == zero.Base &&
		s.Swing == zero.Swing && s.Period == zero.Period && s.Phase == zero.Phase &&
		s.BurstAt == zero.BurstAt && s.BurstDuration == zero.BurstDuration &&
		s.BurstFactor == zero.BurstFactor && len(s.Times) == 0 && len(s.Rates) == 0 {
		return ""
	}
	b.WriteString(", Arrivals: fleet.ArrivalSpec{")
	first := true
	w := func(format string, args ...any) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, format, args...)
	}
	switch s.Kind {
	case fleet.ArrivalPoisson:
		w("Kind: fleet.ArrivalPoisson")
	case fleet.ArrivalDiurnal:
		w("Kind: fleet.ArrivalDiurnal")
	case fleet.ArrivalTrace:
		w("Kind: fleet.ArrivalTrace")
	case "":
	default:
		w("Kind: %q", s.Kind)
	}
	if s.Lambda != 0 {
		w("Lambda: %g", s.Lambda)
	}
	if s.Base != 0 {
		w("Base: %g", s.Base)
	}
	if s.Swing != 0 {
		w("Swing: %g", s.Swing)
	}
	if s.Period != 0 {
		w("Period: %g", s.Period)
	}
	if s.Phase != 0 {
		w("Phase: %g", s.Phase)
	}
	if s.BurstFactor != 0 {
		w("BurstAt: %g, BurstDuration: %g, BurstFactor: %g", s.BurstAt, s.BurstDuration, s.BurstFactor)
	}
	if len(s.Times) > 0 {
		w("Times: %#v, Rates: %#v", s.Times, s.Rates)
	}
	b.WriteString("}")
	return b.String()
}

// faultKindIdent maps a FaultKind value back to its Go identifier.
func faultKindIdent(k fleet.FaultKind) string {
	switch k {
	case fleet.FaultCrushPrimary:
		return "fleet.FaultCrushPrimary"
	case fleet.FaultCrushAll:
		return "fleet.FaultCrushAll"
	case fleet.FaultRestoreApp:
		return "fleet.FaultRestoreApp"
	case fleet.FaultBackboneCrush:
		return "fleet.FaultBackboneCrush"
	case fleet.FaultBackboneRestore:
		return "fleet.FaultBackboneRestore"
	case fleet.FaultBackbonePartialRestore:
		return "fleet.FaultBackbonePartialRestore"
	case fleet.FaultRegionFail:
		return "fleet.FaultRegionFail"
	case fleet.FaultRegionRestore:
		return "fleet.FaultRegionRestore"
	case fleet.FaultRegionPartialRestore:
		return "fleet.FaultRegionPartialRestore"
	case fleet.FaultRetire:
		return "fleet.FaultRetire"
	case fleet.FaultMigrate:
		return "fleet.FaultMigrate"
	}
	return fmt.Sprintf("fleet.FaultKind(%q)", string(k))
}
