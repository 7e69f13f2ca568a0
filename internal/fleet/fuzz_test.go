package fleet

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioOptionsJSON: scenario options read from JSON — the form a
// reproducer or a hand-edited scenario file arrives in — are either rejected
// by json.Unmarshal or answered by validate() with nil or an error, never a
// panic. The seeds are the catalog entries, marshalled, and a few shapes
// json.Unmarshal accepts that no Go literal in the repo spells.
func FuzzScenarioOptionsJSON(f *testing.F) {
	for _, e := range Catalog() {
		b, err := json.Marshal(e.Opts)
		if err != nil {
			f.Fatalf("%s: %v", e.Name, err)
		}
		f.Add(b)
	}
	for _, src := range []string{
		`{}`,
		`null`,
		`{"Faults": [{"At": -1, "Kind": "region-fail"}]}`,
		`{"Faults": [{"At": 5, "Kind": "no-such-fault"}, null]}`,
		`{"AppMix": [{}, {"ClientRate": 1e308}], "Manager": {"Tracer": {}}}`,
		`{"Apps": -3, "Duration": 1e400}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o ScenarioOptions
		if json.Unmarshal(data, &o) != nil {
			return
		}
		_ = o.validate()
	})
}
