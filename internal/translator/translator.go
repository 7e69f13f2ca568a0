// Package translator bridges the model layer to the runtime layer (Figure 1,
// arrow 5): it expands each semantic repair operation into the Table 1
// environment-manager calls that realize it. The paper notes this component
// was hand-tailored per platform; here it is hand-tailored to the simulated
// grid testbed.
package translator

import (
	"fmt"

	"archadapt/internal/envmgr"
	"archadapt/internal/repair"
)

// Translator applies model-level ops through the environment manager.
type Translator struct {
	Env *envmgr.Manager
}

// New creates a translator over an environment manager.
func New(env *envmgr.Manager) *Translator {
	return &Translator{Env: env}
}

// Apply implements repair.Translator.
func (t *Translator) Apply(op repair.Op) error {
	switch op.Kind {
	case repair.OpAddServer:
		// The model chose the spare; realize it as connect (if the server is
		// parked on another queue) + activate.
		srv := t.Env.App.Server(op.Server)
		if srv == nil {
			return fmt.Errorf("translator: unknown server %q", op.Server)
		}
		if srv.Group != op.Group {
			if err := t.Env.ConnectServer(op.Server, op.Group); err != nil {
				return err
			}
		}
		return t.Env.ActivateServer(op.Server)
	case repair.OpRemoveServer:
		return t.Env.DeactivateServer(op.Server)
	case repair.OpMoveClient:
		return t.Env.MoveClient(op.Client, op.Group)
	case repair.OpCreateQueue:
		return t.Env.CreateReqQueue(op.Group)
	}
	return fmt.Errorf("translator: unknown op kind %v", op.Kind)
}
