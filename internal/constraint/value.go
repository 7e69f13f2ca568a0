// Package constraint implements the architectural constraint language used
// to express invariants over the model — the role Armani plays for Acme in
// the paper. Expressions support numeric/boolean/string operations, element
// property references, and the first-order forms of Figure 5:
//
//	invariant averageLatency <= maxLatency
//	exists p : RequestT in cli.Ports | attached(p, badRole)
//	select sgrp : ServerGroupT in self.Components | connected(sgrp, client)
//	size(loadedServerGroups) == 0
//
// The evaluator is pure: it reads the model and never mutates it.
package constraint

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"archadapt/internal/model"
)

// ValueKind discriminates runtime value types.
type ValueKind uint8

// Runtime value kinds.
const (
	KNil ValueKind = iota
	KNum
	KBool
	KStr
	KElem
	KSet
)

// Value is a constraint-language runtime value, three words wide so the
// evaluator passes it in registers. Numbers and booleans sit unboxed in num
// with their kind as ref; an element is the pointer ref already is; strings
// and sets, which no per-tick invariant produces, are boxed.
type Value struct {
	num float64
	ref any // nil, KNum, KBool, string, model.Element or []Value
}

// Kind returns the value's runtime type.
func (v Value) Kind() ValueKind {
	switch r := v.ref.(type) {
	case nil:
		return KNil
	case ValueKind:
		return r
	case string:
		return KStr
	case []Value:
		return KSet
	}
	return KElem
}

// Num returns a KNum value's number.
func (v Value) Num() float64 { return v.num }

// Bool returns a KBool value's truth.
func (v Value) Bool() bool { return v.num != 0 }

// Str returns a KStr value's string ("" for any other kind).
func (v Value) Str() string { s, _ := v.ref.(string); return s }

// Elem returns a KElem value's element (nil for any other kind).
func (v Value) Elem() model.Element { e, _ := v.ref.(model.Element); return e }

// Set returns a KSet value's members (nil for any other kind).
func (v Value) Set() []Value { s, _ := v.ref.([]Value); return s }

// Nil is the nil value.
func Nil() Value { return Value{} }

// Num wraps a number.
func Num(f float64) Value { return Value{num: f, ref: KNum} }

// Bool wraps a boolean.
func Bool(b bool) Value {
	if b {
		return Value{num: 1, ref: KBool}
	}
	return Value{ref: KBool}
}

// Str wraps a string.
func Str(s string) Value { return Value{ref: s} }

// Elem wraps a model element.
func Elem(e model.Element) Value {
	if e == nil {
		return Nil()
	}
	return Value{ref: e}
}

// Set wraps a list of values.
func Set(vs []Value) Value { return Value{ref: vs} }

// Truthy reports the boolean interpretation; only booleans are truthy/falsy,
// everything else is a type error.
func (v Value) Truthy() (bool, error) {
	if v.Kind() != KBool {
		return false, fmt.Errorf("constraint: %s is not a boolean", v)
	}
	return v.num != 0, nil
}

// String renders the value for error messages and the ADL printer.
func (v Value) String() string {
	switch r := v.ref.(type) {
	case nil:
		return "nil"
	case ValueKind:
		if r == KBool {
			return strconv.FormatBool(v.Bool())
		}
		return strconv.FormatFloat(v.num, 'g', -1, 64)
	case string:
		return strconv.Quote(r)
	case []Value:
		parts := make([]string, len(r))
		for i, e := range r {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	e := v.Elem()
	return fmt.Sprintf("<%s %s>", e.Kind(), e.Name())
}

// equal compares two values for the == / != operators.
func equal(a, b Value) bool {
	as, aSet := a.ref.([]Value)
	bs, bSet := b.ref.([]Value)
	if aSet || bSet {
		return aSet && bSet && slices.EqualFunc(as, bs, equal)
	}
	return a.num == b.num && a.ref == b.ref
}
