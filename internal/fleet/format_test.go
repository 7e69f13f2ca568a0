package fleet

import (
	"go/parser"
	"math"
	"reflect"
	"strings"
	"testing"
)

// eachLeaf enumerates, from the type, every exported scalar reachable from
// ScenarioOptions through structs and slices, and hands visit the options
// (all zero but for the one-element slices on the way down), the addressable
// leaf, its path as validate spells it, and its field name. The leaf is zero
// again when visit returns. Pointers are skipped, as the printer and the
// finite check skip them; any other kind is a decision nobody has made yet.
func eachLeaf(t *testing.T, visit func(o *ScenarioOptions, leaf reflect.Value, path, name string)) {
	var o ScenarioOptions
	var walk func(v reflect.Value, path, name string)
	walk = func(v reflect.Value, path, name string) {
		switch v.Kind() {
		case reflect.Ptr:
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if sf := v.Type().Field(i); sf.IsExported() {
					walk(v.Field(i), path+"."+sf.Name, sf.Name)
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			walk(v.Index(0), path+"[0]", name)
			v.SetZero()
		case reflect.Bool, reflect.Int, reflect.Uint64, reflect.Float64, reflect.String:
			visit(&o, v, path, name)
			v.SetZero()
		default:
			t.Fatalf("%s is a %s: decide how FormatOptions spells it and teach this walk to set one", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(&o).Elem(), "ScenarioOptions", "")
}

// TestFormatOptionsPrintsEveryField is the printer's losslessness test, by
// reflection rather than by list: with any one field set — at any depth,
// including ones added after this test was written — the literal names it and
// parses as a Go expression.
func TestFormatOptionsPrintsEveryField(t *testing.T) {
	leaves := 0
	eachLeaf(t, func(o *ScenarioOptions, leaf reflect.Value, path, name string) {
		leaves++
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(true)
		case reflect.Int:
			leaf.SetInt(-3)
		case reflect.Uint64:
			leaf.SetUint(3)
		case reflect.Float64:
			leaf.SetFloat(2.5e-7)
		case reflect.String:
			leaf.SetString(`a "quoted" kind`)
		}
		lit := FormatOptions(*o)
		if !strings.Contains(lit, name+": ") {
			t.Errorf("%s is set but the literal does not name it:\n%s", path, lit)
		}
		if _, err := parser.ParseExpr(lit); err != nil {
			t.Errorf("%s: literal does not parse: %v\n%s", path, err, lit)
		}
	})
	if leaves < 90 {
		t.Errorf("walked %d leaf fields; ScenarioOptions reaches 96", leaves)
	}
	if got := FormatOptions(ScenarioOptions{}); got != "fleet.ScenarioOptions{}" {
		t.Errorf("zero options print as %q", got)
	}
}

// TestValidateNamesEveryNonFiniteFloat: every float64 the options reach, the
// same enumeration, is refused by path when it is NaN or infinite.
func TestValidateNamesEveryNonFiniteFloat(t *testing.T) {
	eachLeaf(t, func(o *ScenarioOptions, leaf reflect.Value, path, _ string) {
		if leaf.Kind() != reflect.Float64 {
			return
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			leaf.SetFloat(bad)
			if err := o.validate(); err == nil || !strings.Contains(err.Error(), path+" = ") {
				t.Errorf("%s = %v: validate returned %v", path, bad, err)
			}
		}
	})
}
