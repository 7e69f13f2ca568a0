package model

import (
	"fmt"
	"slices"
	"sort"
)

// Props is the property list attached to every architecture element.
// Property values are dynamically typed: float64, bool, string, or []string.
// The paper annotates elements with performance attributes (delay,
// bandwidth, load) and threshold parameters (maxLatency, maxServerLoad,
// minBandwidth); gauges write the former, the task layer the latter.
//
// Values are stored unboxed in a short slice searched by name: an element
// carries a handful of properties, gauges overwrite them every few seconds
// and the constraint evaluator reads them on every check, so neither side
// should pay for a hash or an interface box. Rev counts the mutations that
// changed the list's contents.
type Props struct {
	ps  []prop
	rev uint64
}

type propKind uint8

const (
	kindNum propKind = iota
	kindBool
	kindStr
	kindStrs
)

// prop is one named value; num holds a number, or 1/0 for a boolean.
type prop struct {
	name string
	kind propKind
	num  float64
	str  string
	strs []string
}

// NewProps returns an empty property list.
func NewProps() Props { return Props{} }

func (p *Props) find(name string) *prop {
	for i := range p.ps {
		if p.ps[i].name == name {
			return &p.ps[i]
		}
	}
	return nil
}

// put stores v under its name. Writing the value a property already has
// leaves Rev alone: nothing derived from the list can have changed.
func (p *Props) put(v prop) {
	if old := p.find(v.name); old == nil {
		p.ps = append(p.ps, v)
	} else if old.kind == v.kind && old.num == v.num && old.str == v.str && v.kind != kindStrs {
		return
	} else {
		*old = v
	}
	p.rev++
}

// Rev returns the list's mutation revision. It moves on every Set or Delete
// that changed a value, so whatever was computed from the list at one Rev
// (a constraint verdict) still holds while Rev reads the same.
func (p *Props) Rev() uint64 { return p.rev }

// Set stores a property value. Ints are normalized to float64 so numeric
// comparisons in the constraint language have one numeric type.
func (p *Props) Set(name string, v any) {
	switch x := v.(type) {
	case int:
		p.SetFloat(name, float64(x))
	case int64:
		p.SetFloat(name, float64(x))
	case float32:
		p.SetFloat(name, float64(x))
	case float64:
		p.SetFloat(name, x)
	case bool:
		b := prop{name: name, kind: kindBool}
		if x {
			b.num = 1
		}
		p.put(b)
	case string:
		p.put(prop{name: name, kind: kindStr, str: x})
	case []string:
		p.put(prop{name: name, kind: kindStrs, strs: x})
	default:
		// Invariant: every caller passes a type handled above. acme's
		// parseProperty yields only float64, bool or string; Build,
		// core.NewAttached and the operators' Txn.SetProp calls pass float64
		// or bool; Txn.SetProp's undo restores a value Get returned.
		panic(fmt.Sprintf("model: unsupported property type %T for %q", v, name))
	}
}

// SetFloat is Set for a value already known to be a number — the gauge
// consumer's form, which boxes nothing.
func (p *Props) SetFloat(name string, f float64) { p.put(prop{name: name, kind: kindNum, num: f}) }

// Get returns the raw value.
func (p *Props) Get(name string) (any, bool) {
	v := p.find(name)
	if v == nil {
		return nil, false
	}
	switch v.kind {
	case kindNum:
		return v.num, true
	case kindBool:
		return v.num != 0, true
	case kindStr:
		return v.str, true
	}
	return v.strs, true
}

// Has reports whether the property exists.
func (p *Props) Has(name string) bool { return p.find(name) != nil }

// Delete removes a property.
func (p *Props) Delete(name string) {
	if v := p.find(name); v != nil {
		last := len(p.ps) - 1
		*v = p.ps[last]
		p.ps[last] = prop{}
		p.ps = p.ps[:last]
		p.rev++
	}
}

// Float returns a numeric property.
func (p *Props) Float(name string) (float64, bool) {
	if v := p.find(name); v != nil && v.kind == kindNum {
		return v.num, true
	}
	return 0, false
}

// FloatOr returns a numeric property or def when absent.
func (p *Props) FloatOr(name string, def float64) float64 {
	if f, ok := p.Float(name); ok {
		return f
	}
	return def
}

// Bool returns a boolean property.
func (p *Props) Bool(name string) (bool, bool) {
	if v := p.find(name); v != nil && v.kind == kindBool {
		return v.num != 0, true
	}
	return false, false
}

// BoolOr returns a boolean property or def when absent.
func (p *Props) BoolOr(name string, def bool) bool {
	if b, ok := p.Bool(name); ok {
		return b
	}
	return def
}

// Names returns the property names sorted, for deterministic iteration and
// printing.
func (p *Props) Names() []string {
	out := make([]string, len(p.ps))
	for i := range p.ps {
		out[i] = p.ps[i].name
	}
	sort.Strings(out)
	return out
}

// Len returns the number of properties.
func (p *Props) Len() int { return len(p.ps) }

// clone deep-copies the property list.
func (p *Props) clone() Props {
	c := Props{ps: slices.Clone(p.ps), rev: p.rev}
	for i := range c.ps {
		c.ps[i].strs = slices.Clone(c.ps[i].strs)
	}
	return c
}

// equal compares two lists by value, ignoring order and revision.
func (p *Props) equal(o *Props) bool {
	if len(p.ps) != len(o.ps) {
		return false
	}
	for i := range p.ps {
		a := &p.ps[i]
		b := o.find(a.name)
		if b == nil || a.kind != b.kind || a.num != b.num || a.str != b.str || !slices.Equal(a.strs, b.strs) {
			return false
		}
	}
	return true
}
