package operators

import (
	"fmt"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
	"archadapt/internal/repair"
	"archadapt/internal/script"
)

// FixLatencyScript is the Figure 5 repair strategy in the script language —
// the textual form the paper says its hand-coded repairs "could be generated
// from"; the hand-coded FixLatency is the reference it is tested against.
// fixServerLoad selects only loaded groups with a spare, so line 26 means a
// server was added; fixBandwidth declines until the role's bandwidth is
// measured.
const FixLatencyScript = `
strategy fixLatency(badClient : ClientT) = {
    if (fixServerLoad(badClient)) { commit repair; }
    else if (fixBandwidth(badClient)) { commit repair; }
    else { abort ModelError; }
}

tactic fixServerLoad(client : ClientT) : boolean = {
    let loadedServerGroups : set = select sgrp : ServerGroupT in self.Components |
        connected(sgrp, client) and sgrp.load > maxServerLoad and hasSpare(sgrp);
    if (size(loadedServerGroups) == 0) { return false; }
    foreach sGrp in loadedServerGroups { sGrp.addServer(); }
    return size(loadedServerGroups) > 0;
}

tactic fixBandwidth(client : ClientT) : boolean = {
    let role : ClientRoleT = roleOf(client);
    if (!hasProperty(role, "bandwidth")) { return false; }
    if (role.bandwidth >= minBandwidth) { return false; }
    let oldSGrp : ServerGroupT = groupOf(client);
    let goodSGrp : ServerGroupT = findGoodSGrp(client, minBandwidth);
    if (goodSGrp == nil) { abort NoServerGroupFound; }
    if (goodSGrp == oldSGrp) { return false; }
    client.move(goodSGrp);
    return true;
}
`

// ShrinkScript is the paper's third repair ("not shown": reduce the number of
// servers in a server group if the server group is underutilized"), which
// keeps the active-server set minimal, the cost goal stated in §1.
const ShrinkScript = `
strategy shrink(grp : ServerGroupT) = {
    if (fixUnderutilization(grp)) { commit repair; }
    else { abort ModelError; }
}

tactic fixUnderutilization(grp : ServerGroupT) : boolean = {
    if (grp.load >= minServerLoad) { return false; }
    if (grp.replicationCount <= minReplicas or grp.replicationCount <= 1) { return false; }
    grp.remove();
    return true;
}
`

// The two scripts, each compiled once per process; a binding holds a frame
// per definition of its library.
var fixLatencyLib, shrinkLib = compile(FixLatencyScript), compile(ShrinkScript)

func compile(src string) *script.Library {
	lib, err := script.Compile(src, styleOps(nil))
	if err != nil {
		// Invariant: the source is one of the constants above, never input,
		// and every test binary that imports this package compiles it; only
		// an edit that breaks it gets here.
		panic("operators: compiling a repair script: " + err.Error())
	}
	return lib
}

// CompileFixLatency binds the compiled FixLatencyScript to one manager's
// group query.
func CompileFixLatency(query GroupQuery) (*repair.Strategy, error) {
	return fixLatencyLib.Bind("fixLatency", styleOps(query))
}

// CompileShrink binds the compiled ShrinkScript.
func CompileShrink() (*repair.Strategy, error) {
	return shrinkLib.Bind("shrink", styleOps(nil))
}

// styleOps exposes this style's adaptation operators to the script
// language: methods addServer / move / remove on model elements, and the
// expression-level queries roleOf, groupOf, hasSpare and findGoodSGrp, the
// last asking query.
func styleOps(query GroupQuery) script.OperatorSet {
	// good is the group findGoodSGrp last answered, whose prediction a move
	// to that group seeds the new role's bandwidth with (as FixBandwidth
	// does) without asking twice.
	var good *model.Component
	var predicted float64
	return script.OperatorSet{
		Methods: map[string]script.Method{
			"addServer": func(ctx *repair.Context, recv constraint.Value, _ []constraint.Value) error {
				grp, err := component(recv, TServerGroup)
				if err == nil {
					_, err = AddServer(ctx.Txn, grp)
				}
				return err
			},
			"move": func(ctx *repair.Context, recv constraint.Value, args []constraint.Value) error {
				cli, err := component(recv, TClient)
				if err != nil {
					return err
				}
				to, err := component(arg(args, 0), TServerGroup)
				if err != nil {
					return err
				}
				bw := 0.0
				if to == good {
					bw = predicted
				}
				return MoveClient(ctx.Txn, ctx.Sys, cli, to, bw)
			},
			"remove": func(ctx *repair.Context, recv constraint.Value, _ []constraint.Value) error {
				grp, err := component(recv, TServerGroup)
				if err == nil {
					err = RemoveServer(ctx.Txn, grp, "")
				}
				return err
			},
		},
		Funcs: map[string]func([]constraint.Value) (constraint.Value, error){
			// roleOf(client) resolves the client's current connector role,
			// letting scripts read role.bandwidth as Figure 5 does.
			"roleOf": func(args []constraint.Value) (constraint.Value, error) {
				cli, err := component(arg(args, 0), TClient)
				if err != nil {
					return constraint.Nil(), err
				}
				_, _, role, err := GroupOf(cli.System(), cli)
				return constraint.Elem(role), err
			},
			// groupOf(client) resolves the client's current server group.
			"groupOf": func(args []constraint.Value) (constraint.Value, error) {
				cli, err := component(arg(args, 0), TClient)
				if err != nil {
					return constraint.Nil(), err
				}
				grp, _, _, err := GroupOf(cli.System(), cli)
				return constraint.Elem(grp), err
			},
			// hasSpare(group) reports whether addServer has a server to add.
			"hasSpare": func(args []constraint.Value) (constraint.Value, error) {
				grp, err := component(arg(args, 0), TServerGroup)
				return constraint.Bool(err == nil && firstSpare(grp) != nil), err
			},
			// findGoodSGrp(client, minBW): the §3.3 runtime query.
			"findGoodSGrp": func(args []constraint.Value) (constraint.Value, error) {
				cli, err := component(arg(args, 0), TClient)
				switch {
				case err != nil:
					return constraint.Nil(), err
				case arg(args, 1).Kind() != constraint.KNum:
					return constraint.Nil(), fmt.Errorf("operators: findGoodSGrp(client, minBW) wants a number")
				case query == nil:
					return constraint.Nil(), fmt.Errorf("operators: no group query configured")
				}
				if good, predicted = query(cli.System(), cli, args[1].Num()); good == nil {
					return constraint.Nil(), nil
				}
				return constraint.Elem(good), nil
			},
		},
	}
}

// arg is a style operator's argument i, or nil when there are fewer.
func arg(args []constraint.Value, i int) constraint.Value {
	if i < len(args) {
		return args[i]
	}
	return constraint.Nil()
}

// component is v as a component of type typ.
func component(v constraint.Value, typ string) (*model.Component, error) {
	if c, ok := v.Elem().(*model.Component); ok && c.Type() == typ {
		return c, nil
	}
	return nil, fmt.Errorf("operators: %s is not a %s", v, typ)
}
