package chaos

import (
	"math"

	"archadapt/internal/fleet"
)

// Shrink reduces a failing scenario to a minimal reproducer. fails must
// report whether a candidate still exhibits the failure (for invariant
// violations: func(o) bool { return len(chaos.Check(o)) > 0 }); Shrink
// assumes fails(opts) is true and never returns a candidate that is not.
//
// The fault schedule is minimized first with delta debugging (ddmin):
// progressively finer chunks of the schedule are removed while the failure
// persists, converging to a schedule where every remaining fault is load-
// bearing. Then the scalar knobs are trimmed greedily — fewer apps, no
// admission churn, shorter duration. budget caps the total number of
// candidate executions (0 means 120); each candidate costs two full runs
// under Check, so the default stays in seconds.
func Shrink(opts fleet.ScenarioOptions, fails func(fleet.ScenarioOptions) bool, budget int) fleet.ScenarioOptions {
	if budget <= 0 {
		budget = 120
	}
	calls := 0
	try := func(c fleet.ScenarioOptions) bool {
		if calls >= budget {
			return false
		}
		calls++
		return fails(c)
	}

	cur := opts
	// ddmin over the fault schedule.
	n := 2
	for len(cur.Faults) >= 1 {
		if n > len(cur.Faults) {
			n = len(cur.Faults)
		}
		chunk := (len(cur.Faults) + n - 1) / n
		reduced := false
		for i := 0; i < len(cur.Faults); i += chunk {
			end := i + chunk
			if end > len(cur.Faults) {
				end = len(cur.Faults)
			}
			cand := cur
			cand.Faults = append(append([]fleet.Fault{}, cur.Faults[:i]...), cur.Faults[end:]...)
			if try(cand) {
				cur = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if chunk == 1 {
				break // every single fault is load-bearing
			}
			n *= 2
		}
	}

	// Greedy scalar shrinks: each keeps only if the failure persists.
	for cur.Apps > 1 {
		cand := cur
		cand.Apps--
		if !try(cand) {
			break
		}
		cur = cand
	}
	if cur.AdmitWaves > 0 || cur.AdmitStagger > 0 || cur.RetireAfter > 0 {
		cand := cur
		cand.AdmitWaves, cand.AdmitStagger, cand.RetireAfter = 0, 0, 0
		if try(cand) {
			cur = cand
		}
	}
	if cur.OpenLoop.Enabled {
		// Try dropping the open-loop engine entirely (arrival specs too):
		// if the failure survives, it was never an open-loop bug.
		cand := cur
		cand.OpenLoop = fleet.OpenLoopPolicy{}
		cand.AppMix = append([]fleet.AppSpec{}, cur.AppMix...)
		for i := range cand.AppMix {
			cand.AppMix[i].Arrivals = fleet.ArrivalSpec{}
		}
		cand.App.Arrivals = fleet.ArrivalSpec{}
		if try(cand) {
			cur = cand
		}
	}
	for cur.Duration > 120 {
		cand := cur
		cand.Duration = math.Round(cur.Duration * 0.7)
		if cand.Duration < 120 {
			cand.Duration = 120
		}
		if !try(cand) {
			break
		}
		cur = cand
	}
	return cur
}
