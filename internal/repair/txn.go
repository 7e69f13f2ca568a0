// Package repair implements the paper's repair machinery (§3.2): strategies
// that call guarded tactics, executed transactionally against the
// architecture model, with the resulting semantic operations handed to a
// translator — the environment manager — for propagation to the running
// system (§3.3, Figure 1 arrow 5).
package repair

import (
	"fmt"

	"archadapt/internal/model"
)

// OpKind enumerates the semantic operations a repair can emit. The
// translator expands each into the Table 1 runtime calls.
type OpKind int

// Semantic operation kinds.
const (
	// OpAddServer activates a replicated server in a group
	// (findServer + connectServer + activateServer).
	OpAddServer OpKind = iota
	// OpRemoveServer deactivates a server (deactivateServer).
	OpRemoveServer
	// OpMoveClient repoints a client at another group's request queue
	// (moveClient).
	OpMoveClient
)

func (k OpKind) String() string {
	switch k {
	case OpAddServer:
		return "addServer"
	case OpRemoveServer:
		return "removeServer"
	case OpMoveClient:
		return "moveClient"
	}
	return "unknownOp"
}

// Op is one semantic operation recorded during a tactic's script.
type Op struct {
	Kind   OpKind
	Client string // client name, for OpMoveClient
	Group  string // server-group name
	Server string // server name, for add/remove
}

func (o Op) String() string {
	switch o.Kind {
	case OpMoveClient:
		return fmt.Sprintf("moveClient(%s -> %s)", o.Client, o.Group)
	case OpAddServer:
		return fmt.Sprintf("addServer(%s in %s)", o.Server, o.Group)
	case OpRemoveServer:
		return fmt.Sprintf("removeServer(%s from %s)", o.Server, o.Group)
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Group)
	}
}

// Txn is a transactional view of the model: every mutation records an undo
// closure, and semantic ops accumulate for the translator. Abort restores
// the model exactly (verified by the model.Equal tests).
type Txn struct {
	Sys     *model.System
	undo    []func() error
	ops     []Op
	aborted bool
}

// NewTxn opens a transaction on sys.
func NewTxn(sys *model.System) *Txn {
	return &Txn{Sys: sys}
}

// reset reopens the transaction on sys with nothing recorded, keeping the
// storage of the last one.
func (t *Txn) reset(sys *model.System) {
	clear(t.undo)
	t.Sys, t.undo, t.ops, t.aborted = sys, t.undo[:0], t.ops[:0], false
}

// Ops returns the semantic operations recorded so far.
func (t *Txn) Ops() []Op { return t.ops }

// Record appends a semantic operation for the translator.
func (t *Txn) Record(op Op) { t.ops = append(t.ops, op) }

// pushUndo registers the inverse of a mutation just performed.
func (t *Txn) pushUndo(fn func() error) { t.undo = append(t.undo, fn) }

// Abort rolls the model back by applying undos in reverse order.
func (t *Txn) Abort() error {
	if t.aborted {
		return nil
	}
	t.aborted = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.undo[i](); err != nil {
			return fmt.Errorf("repair: rollback failed (model may be inconsistent): %w", err)
		}
	}
	t.undo = nil
	t.ops = nil
	return nil
}

// --- transactional mutation helpers ---

// SetProp sets a property, remembering the previous value.
func (t *Txn) SetProp(e model.Element, name string, v any) {
	props := e.Props()
	old, had := props.Get(name)
	props.Set(name, v)
	t.pushUndo(func() error {
		if had {
			props.Set(name, old)
		} else {
			props.Delete(name)
		}
		return nil
	})
}

// AddRole adds a role to a connector.
func (t *Txn) AddRole(c *model.Connector, name, typ string) (*model.Role, error) {
	if c.Role(name) != nil {
		return nil, fmt.Errorf("repair: role %s.%s already exists", c.Name(), name)
	}
	r := c.AddRole(name, typ)
	t.pushUndo(func() error { return c.RemoveRole(name) })
	return r, nil
}

// RemoveRole removes a detached role.
func (t *Txn) RemoveRole(c *model.Connector, name string) error {
	r := c.Role(name)
	if r == nil {
		return fmt.Errorf("repair: no role %s.%s", c.Name(), name)
	}
	if err := c.RemoveRole(name); err != nil {
		return err
	}
	t.pushUndo(func() error { return c.RestoreRole(r) })
	return nil
}

// Attach binds a port to a role.
func (t *Txn) Attach(sys *model.System, p *model.Port, r *model.Role) error {
	if err := sys.Attach(p, r); err != nil {
		return err
	}
	t.pushUndo(func() error { return sys.Detach(p, r) })
	return nil
}

// Detach unbinds a port from a role.
func (t *Txn) Detach(sys *model.System, p *model.Port, r *model.Role) error {
	if err := sys.Detach(p, r); err != nil {
		return err
	}
	t.pushUndo(func() error { return sys.Attach(p, r) })
	return nil
}
