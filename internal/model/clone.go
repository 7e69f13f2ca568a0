package model

// Clone deep-copies the system: elements, properties, attachments and nested
// representations. The copy shares nothing with the original, so
// repair tactics can run what-if analyses (and tests can diff before/after
// states) without touching the live model.
func (s *System) Clone() *System {
	c := NewSystem(s.name, s.typ)
	c.props = s.props.clone()

	portMap := map[*Port]*Port{}
	roleMap := map[*Role]*Role{}

	for _, comp := range s.components {
		nc := c.AddComponent(comp.name, comp.typ)
		nc.props = comp.props.clone()
		for _, p := range comp.ports {
			np := nc.AddPort(p.name, p.typ)
			np.props = p.props.clone()
			portMap[p] = np
		}
		if comp.Rep != nil {
			nc.Rep = comp.Rep.Clone()
		}
	}
	for _, conn := range s.connectors {
		ncn := c.AddConnector(conn.name, conn.typ)
		ncn.props = conn.props.clone()
		for _, r := range conn.roles {
			nr := ncn.AddRole(r.name, r.typ)
			nr.props = r.props.clone()
			roleMap[r] = nr
		}
	}
	for _, a := range s.atts {
		if err := c.Attach(portMap[a.Port], roleMap[a.Role]); err != nil {
			// Invariant: the source model is consistent. Every attachment
			// in s.atts went through s.Attach, which checked that both ends
			// belong to s and that the role was free; both ends were copied
			// above, so their copies pass the same checks in c.
			panic("model: clone attach: " + err.Error())
		}
	}
	return c
}

// Equal reports whether two systems are structurally identical: same element
// names/types/properties (by value), same attachments by qualified name.
// Element declaration order is ignored — architectures are graphs, and
// transactional rollback may restore elements in a different slice order.
// Useful for clone tests and for verifying rollback restores the model
// exactly.
func (s *System) Equal(o *System) bool {
	if s.name != o.name || s.typ != o.typ || !s.props.equal(&o.props) {
		return false
	}
	if len(s.components) != len(o.components) || len(s.connectors) != len(o.connectors) || len(s.atts) != len(o.atts) {
		return false
	}
	for _, c := range s.components {
		oc := o.Component(c.name)
		if oc == nil || c.typ != oc.typ || !c.props.equal(&oc.props) {
			return false
		}
		if len(c.ports) != len(oc.ports) {
			return false
		}
		for _, p := range c.ports {
			op := oc.Port(p.name)
			if op == nil || p.typ != op.typ || !p.props.equal(&op.props) {
				return false
			}
		}
		switch {
		case c.Rep == nil && oc.Rep == nil:
		case c.Rep != nil && oc.Rep != nil:
			if !c.Rep.Equal(oc.Rep) {
				return false
			}
		default:
			return false
		}
	}
	for _, c := range s.connectors {
		oc := o.Connector(c.name)
		if oc == nil || c.typ != oc.typ || !c.props.equal(&oc.props) {
			return false
		}
		if len(c.roles) != len(oc.roles) {
			return false
		}
		for _, r := range c.roles {
			or := oc.Role(r.name)
			if or == nil || r.typ != or.typ || !r.props.equal(&or.props) {
				return false
			}
		}
	}
	attKey := func(a Attachment) string { return a.Port.QName() + "->" + a.Role.QName() }
	have := map[string]int{}
	for _, a := range s.atts {
		have[attKey(a)]++
	}
	for _, a := range o.atts {
		have[attKey(a)]--
	}
	for _, v := range have {
		if v != 0 {
			return false
		}
	}
	return true
}
