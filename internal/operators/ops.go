package operators

import (
	"fmt"

	"archadapt/internal/model"
	"archadapt/internal/repair"
)

// The architecture adaptation operators of §3.3. Each operates on the model
// inside a transaction and records the semantic op the translator will
// propagate; none touches the runtime directly.

// AddServer activates a spare server in grp's representation — the paper's
//
//	addServer(): adds a new replicated server component to its
//	representation, ensuring that the architecture is structurally valid.
//
// The model keeps spares as inactive ServerT components (the runtime testbed
// had two spare machines, S4 and S7), so "adding" a server flips one to
// active and bumps the replication count. It returns the server's name, or
// an error when the group has no spare left.
func AddServer(txn *repair.Txn, grp *model.Component) (string, error) {
	if grp.Type() != TServerGroup {
		return "", fmt.Errorf("operators: addServer on %s (%s)", grp.Name(), grp.Type())
	}
	srv := firstSpare(grp)
	if srv == nil {
		return "", fmt.Errorf("operators: no spare server in %s", grp.Name())
	}
	name := srv.Name()
	txn.SetProp(srv, PropActive, true)
	txn.SetProp(grp, PropReplication, grp.Props().FloatOr(PropReplication, 0)+1)
	txn.Record(repair.Op{Kind: repair.OpAddServer, Group: grp.Name(), Server: name})
	return name, nil
}

// RemoveServer deactivates an active server — the paper's
//
//	remove(): deletes the server from its containing server group ...
//	changes the replication count ... and deletes the binding.
//
// It refuses to drop a group below one active server.
func RemoveServer(txn *repair.Txn, grp *model.Component, serverName string) error {
	if grp.Type() != TServerGroup {
		return fmt.Errorf("operators: removeServer on %s (%s)", grp.Name(), grp.Type())
	}
	active := ActiveServers(grp)
	if len(active) <= 1 {
		return fmt.Errorf("operators: %s has only %d active server(s)", grp.Name(), len(active))
	}
	if serverName == "" {
		serverName = active[len(active)-1]
	}
	srv := grp.Rep.Component(serverName)
	if srv == nil || !srv.Props().BoolOr(PropActive, false) {
		return fmt.Errorf("operators: %s has no active server %q", grp.Name(), serverName)
	}
	txn.SetProp(srv, PropActive, false)
	txn.SetProp(grp, PropReplication, grp.Props().FloatOr(PropReplication, 1)-1)
	txn.Record(repair.Op{Kind: repair.OpRemoveServer, Group: grp.Name(), Server: serverName})
	return nil
}

// MoveClient repoints a client at another server group — the paper's
//
//	move(to: ServerGroupT): deletes the role currently connecting the
//	client ... and performs the necessary attachment to a connector that
//	will connect it to the server group passed in as a parameter.
//
// newBandwidth, when positive, seeds the fresh role's bandwidth property so
// the constraint does not re-fire before the gauges catch up.
func MoveClient(txn *repair.Txn, sys *model.System, cli, to *model.Component, newBandwidth float64) error {
	if cli.Type() != TClient {
		return fmt.Errorf("operators: move on %s (%s)", cli.Name(), cli.Type())
	}
	if to.Type() != TServerGroup {
		return fmt.Errorf("operators: move target %s is %s", to.Name(), to.Type())
	}
	curGrp, curConn, curRole, err := GroupOf(sys, cli)
	if err != nil {
		return err
	}
	if curGrp == to {
		return fmt.Errorf("operators: client %s already on %s", cli.Name(), to.Name())
	}
	newConn := sys.Connector(ConnName(to.Name()))
	if newConn == nil {
		return fmt.Errorf("operators: group %s has no connector", to.Name())
	}
	port := cli.Port("request")
	if err := txn.Detach(sys, port, curRole); err != nil {
		return err
	}
	if err := txn.RemoveRole(curConn, curRole.Name()); err != nil {
		return err
	}
	role, err := txn.AddRole(newConn, RoleName(cli.Name()), TClientRole)
	if err != nil {
		return err
	}
	if newBandwidth > 0 {
		txn.SetProp(role, PropBandwidth, newBandwidth)
	}
	if err := txn.Attach(sys, port, role); err != nil {
		return err
	}
	txn.Record(repair.Op{Kind: repair.OpMoveClient, Client: cli.Name(), Group: to.Name()})
	return nil
}
