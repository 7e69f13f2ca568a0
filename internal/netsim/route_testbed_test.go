package netsim_test

import (
	"testing"

	"archadapt/internal/experiment"
	"archadapt/internal/netsim"
)

// The Figure 6 testbed is hand-wired, not generated: hosts on five routers,
// a chain and the R2–R4 cross link.
func TestRouteOracleFigure6Testbed(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		netsim.CheckRoutesAgainstOracle(t, experiment.NewTestbed(seed).Net, seed)
	}
}
