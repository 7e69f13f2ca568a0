package acme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"archadapt/internal/constraint"
	"archadapt/internal/model"
)

// PrintSystem renders the architecture in canonical ADL form, without
// invariants: Parse(PrintSystem(sys)) yields a model Equal to sys.
func PrintSystem(sys *model.System) string {
	var b strings.Builder
	printSystem(&b, sys, nil, 0, "system")
	return b.String()
}

func indent(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteString("    ")
	}
}

func printSystem(b *strings.Builder, sys *model.System, invs []*constraint.Invariant, depth int, keyword string) {
	if keyword == "system" {
		printHead(b, sys, depth)
		b.WriteString(" = {\n")
	} else {
		indent(b, depth)
		b.WriteString("representation = {\n")
	}
	printProps(b, sys.Props(), depth+1)
	for _, c := range sys.Components() {
		printComponent(b, c, depth+1)
	}
	for _, c := range sys.Connectors() {
		printConnector(b, c, depth+1)
	}
	for _, a := range sys.Attachments() {
		indent(b, depth+1)
		fmt.Fprintf(b, "attachment %s to %s;\n", a.Port.QName(), a.Role.QName())
	}
	for _, inv := range invs {
		indent(b, depth+1)
		b.WriteString("invariant " + inv.Name)
		if inv.Scope != "" {
			b.WriteString(" on " + inv.Scope)
		}
		b.WriteString(" : " + inv.Expr.String() + ";\n")
	}
	indent(b, depth)
	b.WriteString("}\n")
}

func printProps(b *strings.Builder, props *model.Props, depth int) {
	names := props.Names()
	sort.Strings(names)
	for _, name := range names {
		v, _ := props.Get(name)
		indent(b, depth)
		switch x := v.(type) {
		case float64:
			fmt.Fprintf(b, "property %s = %s;\n", name, strconv.FormatFloat(x, 'g', -1, 64))
		case bool:
			fmt.Fprintf(b, "property %s = %t;\n", name, x)
		case string:
			fmt.Fprintf(b, "property %s = %s;\n", name, strconv.Quote(x))
		case []string:
			// String lists are not part of the surface syntax; they are
			// runtime-only. Skip.
		}
	}
}

func printComponent(b *strings.Builder, c *model.Component, depth int) {
	printHead(b, c, depth)
	if c.Props().Len() == 0 && len(c.Ports()) == 0 && c.Rep == nil {
		b.WriteString(";\n")
		return
	}
	b.WriteString(" = {\n")
	printProps(b, c.Props(), depth+1)
	for _, p := range c.Ports() {
		printEnd(b, p, depth+1)
	}
	if c.Rep != nil {
		printSystem(b, c.Rep, nil, depth+1, "representation")
	}
	indent(b, depth)
	b.WriteString("}\n")
}

func printConnector(b *strings.Builder, c *model.Connector, depth int) {
	printHead(b, c, depth)
	if c.Props().Len() == 0 && len(c.Roles()) == 0 {
		b.WriteString(";\n")
		return
	}
	b.WriteString(" = {\n")
	printProps(b, c.Props(), depth+1)
	for _, r := range c.Roles() {
		printEnd(b, r, depth+1)
	}
	indent(b, depth)
	b.WriteString("}\n")
}

// printHead starts an element's declaration: keyword, name and type.
func printHead(b *strings.Builder, e model.Element, depth int) {
	indent(b, depth)
	b.WriteString(e.Kind().String() + " " + e.Name())
	if e.Type() != "" {
		b.WriteString(" : " + e.Type())
	}
}

// printEnd prints a port or a role declaration.
func printEnd(b *strings.Builder, e model.Element, depth int) {
	printHead(b, e, depth)
	if e.Props().Len() == 0 {
		b.WriteString(";\n")
		return
	}
	b.WriteString(" = {\n")
	printProps(b, e.Props(), depth+1)
	indent(b, depth)
	b.WriteString("}\n")
}
