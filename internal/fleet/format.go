package fleet

import (
	"fmt"
	"reflect"
	"strings"
)

// FormatOptions renders a scenario as a ready-to-paste Go literal — the form
// a shrunk chaos reproducer is reported in, and the form a promoted find is
// committed to the catalog in. It walks the struct instead of listing it:
// every exported non-zero field is emitted, whatever its type or depth, so a
// minimal reproducer reads as small as it is and a field added later is
// printed without an edit here. Named string and integer types print as
// plain constants, which a typed literal accepts (Kind: "region-fail").
// Pointers — Manager.Tracer is the only one — are run-time attachments, not
// configuration, and are skipped.
func FormatOptions(o ScenarioOptions) string {
	v := reflect.ValueOf(o)
	fields := literalFields(v)
	if len(fields) == 0 {
		return v.Type().String() + "{}"
	}
	return v.Type().String() + "{\n\t" + strings.Join(fields, ",\n\t") + ",\n}"
}

// literalFields renders v's exported non-zero fields as "Name: value".
func literalFields(v reflect.Value) []string {
	var out []string
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		if sf.IsExported() && !fv.IsZero() && fv.Kind() != reflect.Ptr {
			out = append(out, sf.Name+": "+literal(fv, true))
		}
	}
	return out
}

// literal renders one value; typed says whether a struct spells its type out
// (a slice element's is elided).
func literal(v reflect.Value, typed bool) string {
	switch v.Kind() {
	case reflect.Struct:
		name := ""
		if typed {
			name = v.Type().String()
		}
		return name + "{" + strings.Join(literalFields(v), ", ") + "}"
	case reflect.Slice:
		elems := make([]string, v.Len())
		for i := range elems {
			elems[i] = literal(v.Index(i), false)
		}
		if v.Type().Elem().Kind() == reflect.Struct && len(elems) > 0 {
			// One struct to a line, two tabs in: every slice of structs in the
			// options hangs off a top-level field.
			return v.Type().String() + "{\n\t\t" + strings.Join(elems, ",\n\t\t") + ",\n\t}"
		}
		return v.Type().String() + "{" + strings.Join(elems, ", ") + "}"
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return fmt.Sprint(v.Uint()) // %#v would print hex
	default:
		// Booleans, integers, shortest-round-trip floats and quoted strings,
		// each without its type name.
		return fmt.Sprintf("%#v", v.Interface())
	}
}
