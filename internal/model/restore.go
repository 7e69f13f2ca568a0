package model

import "fmt"

// The Restore* methods re-insert a previously removed element pointer, with
// all its ports/roles/properties intact. They exist for transactional undo in
// the repair layer: Remove followed by Restore of the same pointer is an
// exact inverse.

// RestoreComponent re-adds a component removed from this system.
func (s *System) RestoreComponent(c *Component) error {
	if c == nil {
		return fmt.Errorf("model: restore nil component")
	}
	if s.Component(c.name) != nil {
		return fmt.Errorf("model: restore: component %q already present", c.name)
	}
	c.parent = s
	s.components = append(s.components, c)
	s.rev++
	return nil
}

// RestoreRole re-adds a role removed from this connector.
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
