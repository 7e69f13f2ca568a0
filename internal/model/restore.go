package model

import "fmt"

// RestoreRole re-inserts a previously removed role pointer, with all its
// properties intact. It exists for transactional undo in the repair layer:
// RemoveRole followed by RestoreRole of the same pointer is an exact
// inverse.
func (c *Connector) RestoreRole(r *Role) error {
	if r == nil {
		return fmt.Errorf("model: restore nil role")
	}
	if c.Role(r.name) != nil {
		return fmt.Errorf("model: restore: role %s.%s already present", c.name, r.name)
	}
	r.Owner = c
	c.roles = append(c.roles, r)
	c.parent.touch()
	return nil
}
