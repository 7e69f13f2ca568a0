package operators

import (
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/repair"
	"archadapt/internal/script"
)

// ScriptOperators exposes this style's adaptation operators to the Figure 5
// script language: methods addServer / move / remove on model elements, and
// the expression-level queries roleOf and findGoodSGrp.
func ScriptOperators(query GroupQuery) script.OperatorSet {
	asComponent := func(v constraint.Value, what string) (*model.Component, error) {
		if v.Kind() != constraint.KElem {
			return nil, fmt.Errorf("operators: %s is not an element", what)
		}
		c, ok := v.Elem().(*model.Component)
		if !ok {
			return nil, fmt.Errorf("operators: %s is not a component", what)
		}
		return c, nil
	}
	return script.OperatorSet{
		Methods: map[string]script.Method{
			"addServer": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				grp, err := asComponent(recv, "addServer receiver")
				if err != nil {
					return err
				}
				if firstSpare(grp) == nil {
					// Figure 5 calls addServer on every overloaded group; a
					// group with no spare is a no-op, not an abort — the
					// script detects overall effect via replicasOf.
					return nil
				}
				_, err = AddServer(ctx.Txn, grp)
				return err
			},
			"move": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				cli, err := asComponent(recv, "move receiver")
				if err != nil {
					return err
				}
				if len(args) < 1 {
					return fmt.Errorf("operators: move(to) needs a target group")
				}
				to, err := asComponent(args[0], "move target")
				if err != nil {
					return err
				}
				bw := 0.0
				if len(args) > 1 && args[1].Kind() == constraint.KNum {
					bw = args[1].Num()
				} else if query != nil {
					// Seed the fresh role's bandwidth with the prediction,
					// exactly as the hand-coded FixBandwidth tactic does, so
					// the constraint does not re-fire before gauges catch up.
					if best, predicted := query(ctx.Sys, cli, 0); best == to {
						bw = predicted
					}
				}
				return MoveClient(ctx.Txn, ctx.Sys, cli, to, bw)
			},
			"remove": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				grp, err := asComponent(recv, "remove receiver")
				if err != nil {
					return err
				}
				server := ""
				if len(args) > 0 && args[0].Kind() == constraint.KStr {
					server = args[0].Str()
				}
				return RemoveServer(ctx.Txn, grp, server)
			},
		},
		Funcs: map[string]func([]constraint.Value) (constraint.Value, error){
			// roleOf(client) resolves the client's current connector role,
			// letting scripts read role.bandwidth as Figure 5 does.
			"roleOf": func(args []constraint.Value) (constraint.Value, error) {
				if len(args) != 1 || args[0].Kind() != constraint.KElem {
					return constraint.Nil(), fmt.Errorf("operators: roleOf(client)")
				}
				cli, ok := args[0].Elem().(*model.Component)
				if !ok || cli.Type() != TClient {
					return constraint.Nil(), fmt.Errorf("operators: roleOf wants a client")
				}
				_, _, role, err := GroupOf(cli.System(), cli)
				if err != nil {
					return constraint.Nil(), err
				}
				return constraint.Elem(role), nil
			},
			// groupOf(client) resolves the client's current server group.
			"groupOf": func(args []constraint.Value) (constraint.Value, error) {
				if len(args) != 1 || args[0].Kind() != constraint.KElem {
					return constraint.Nil(), fmt.Errorf("operators: groupOf(client)")
				}
				cli, ok := args[0].Elem().(*model.Component)
				if !ok || cli.Type() != TClient {
					return constraint.Nil(), fmt.Errorf("operators: groupOf wants a client")
				}
				grp, _, _, err := GroupOf(cli.System(), cli)
				if err != nil {
					return constraint.Nil(), err
				}
				return constraint.Elem(grp), nil
			},
			// findGoodSGrp(client, minBW): the §3.3 runtime query.
			"findGoodSGrp": func(args []constraint.Value) (constraint.Value, error) {
				if len(args) != 2 || args[0].Kind() != constraint.KElem || args[1].Kind() != constraint.KNum {
					return constraint.Nil(), fmt.Errorf("operators: findGoodSGrp(client, minBW)")
				}
				cli, ok := args[0].Elem().(*model.Component)
				if !ok {
					return constraint.Nil(), fmt.Errorf("operators: findGoodSGrp wants a client")
				}
				if query == nil {
					return constraint.Nil(), fmt.Errorf("operators: no group query configured")
				}
				grp, _ := query(cli.System(), cli, args[1].Num())
				if grp == nil {
					return constraint.Nil(), nil
				}
				return constraint.Elem(grp), nil
			},
		},
	}
}

// FixLatencyScript is the Figure 5 repair strategy in the script language —
// the textual form the paper says its hand-coded repairs "could be generated
// from". CompileFixLatency turns it into an executable strategy.
const FixLatencyScript = `
strategy fixLatency(badClient : ClientT) = {
    if (fixServerLoad(badClient)) { commit repair; }
    else if (fixBandwidth(badClient)) { commit repair; }
    else { abort ModelError; }
}

tactic fixServerLoad(client : ClientT) : boolean = {
    let loadedServerGroups : set = select sgrp : ServerGroupT in self.Components |
        connected(sgrp, client) and sgrp.load > maxServerLoad;
    if (size(loadedServerGroups) == 0) { return false; }
    let before : float = replicasOf(loadedServerGroups);
    foreach sGrp in loadedServerGroups { sGrp.addServer(); }
    return replicasOf(loadedServerGroups) > before;
}

tactic fixBandwidth(client : ClientT) : boolean = {
    let role : ClientRoleT = roleOf(client);
    if (role.bandwidth >= minBandwidth) { return false; }
    let oldSGrp : ServerGroupT = groupOf(client);
    let goodSGrp : ServerGroupT = findGoodSGrp(client, minBandwidth);
    if (goodSGrp == nil) { abort NoServerGroupFound; }
    if (goodSGrp == oldSGrp) { return false; }
    client.move(goodSGrp);
    return true;
}
`

// CompileFixLatency compiles FixLatencyScript against this style's
// operators. The scripted fixServerLoad differs from Figure 5's literal
// line 26 (`return size(loadedServerGroups) > 0`) in one way: it reports
// success only if some spare was actually activated, since addServer on a
// spare-less group is a no-op here rather than an error.
func CompileFixLatency(query GroupQuery) (*repair.Strategy, error) {
	ops := ScriptOperators(query)
	// replicasOf(set of groups): total replication count — lets the script
	// detect whether addServer had any effect.
	ops.Funcs["replicasOf"] = func(args []constraint.Value) (constraint.Value, error) {
		if len(args) != 1 || args[0].Kind() != constraint.KSet {
			return constraint.Nil(), fmt.Errorf("operators: replicasOf(set)")
		}
		total := 0.0
		for _, v := range args[0].Set() {
			if v.Kind() == constraint.KElem {
				if c, ok := v.Elem().(*model.Component); ok {
					total += float64(len(ActiveServers(c)))
				}
			}
		}
		return constraint.Num(total), nil
	}
	lib, err := script.Compile(FixLatencyScript, ops)
	if err != nil {
		return nil, err
	}
	return lib.Strategies["fixLatency"], nil
}
