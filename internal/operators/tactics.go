package operators

import (
	"fmt"

	"archadapt/internal/model"
	"archadapt/internal/repair"
)

// GroupQuery is the runtime-layer query behind the paper's
//
//	findGoodSGroup(cl: ClientT, bw: float): ServerGroupT
//
// It returns the server group with the best predicted bandwidth to the
// client that is above bw (and the prediction itself), or nil when no group
// qualifies. The production implementation consults the Remos substitute via
// the environment manager; tests inject stubs.
type GroupQuery func(sys *model.System, cli *model.Component, minBW float64) (*model.Component, float64)

// ErrNoServerGroupFound is the paper's `abort NoServerGroupFound` (Fig. 5
// line 41).
var ErrNoServerGroupFound = fmt.Errorf("operators: no server group with sufficient bandwidth")

// subjectClient resolves the violation subject to a ClientT component. The
// latency invariant is scoped to clients, mirroring Fig. 5 lines 5-8 where
// the strategy selects the client attached to the violated role.
func subjectClient(ctx *repair.Context) (*model.Component, error) {
	el := ctx.Violation.Subject
	if el == nil {
		return nil, fmt.Errorf("operators: violation has no subject")
	}
	cli, ok := el.(*model.Component)
	if !ok || cli.Type() != TClient {
		return nil, fmt.Errorf("operators: violation subject %s is not a client", el.Name())
	}
	return cli, nil
}

// FixServerLoad is the first tactic of Figure 5 (lines 16-26): if any server
// group connected to the client is overloaded, activate a server in each.
// It declines (false) when no group is overloaded, or when every overloaded
// group is out of spares — in the paper's run that is exactly when "the only
// repair possible was to move clients". Declining builds no list: it runs on
// every check tick while such a violation stands.
func FixServerLoad() *repair.Tactic {
	return &repair.Tactic{
		Name: "fixServerLoad",
		Script: func(ctx *repair.Context) (bool, error) {
			cli, err := subjectClient(ctx)
			if err != nil {
				return false, err
			}
			maxLoad := ctx.Sys.Props().FloatOr(PropMaxServerLoad, 6)
			activated := false
			for _, grp := range ctx.Sys.ComponentsByType(TServerGroup) {
				if grp.Props().FloatOr(PropLoad, 0) <= maxLoad || !ctx.Sys.Connected(grp, cli) || firstSpare(grp) == nil {
					continue
				}
				if _, err := AddServer(ctx.Txn, grp); err == nil {
					activated = true
				}
			}
			return activated, nil
		},
	}
}

// FixBandwidth is the second tactic of Figure 5 (lines 28-42): when the
// client's connection bandwidth is below the floor, move the client to the
// group with the best predicted bandwidth. A missing bandwidth property
// (gauge not yet reporting) declines rather than aborting; a query that
// finds no better group returns ErrNoServerGroupFound, the paper's abort.
func FixBandwidth(query GroupQuery) *repair.Tactic {
	return &repair.Tactic{
		Name: "fixBandwidth",
		Script: func(ctx *repair.Context) (bool, error) {
			cli, err := subjectClient(ctx)
			if err != nil {
				return false, err
			}
			curGrp, _, role, err := GroupOf(ctx.Sys, cli)
			if err != nil {
				return false, err
			}
			minBW := ctx.Sys.Props().FloatOr(PropMinBandwidth, 10e3)
			bw, ok := role.Props().Float(PropBandwidth)
			if !ok {
				return false, nil
			}
			if bw >= minBW {
				return false, nil
			}
			if query == nil {
				return false, fmt.Errorf("operators: no group query configured")
			}
			good, predicted := query(ctx.Sys, cli, minBW)
			if good == nil {
				return false, ErrNoServerGroupFound
			}
			if good == curGrp {
				// Measurements disagree (gauge lag): the best group is the
				// one we are already on. Decline and let monitoring settle.
				return false, nil
			}
			if err := MoveClient(ctx.Txn, ctx.Sys, cli, good, predicted); err != nil {
				return false, err
			}
			return true, nil
		},
	}
}

// FixLatency assembles the Figure 5 strategy by hand: first try to relieve
// server load, then try to move the client to a better-connected group. The
// managers bind it; the compiled FixLatencyScript makes the same decisions
// at about five times its cost per declined decision.
func FixLatency(query GroupQuery) *repair.Strategy {
	return &repair.Strategy{
		Name:    "fixLatency",
		Policy:  repair.FirstSuccess,
		Tactics: []*repair.Tactic{FixServerLoad(), FixBandwidth(query)},
	}
}
