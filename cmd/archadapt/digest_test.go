package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"archadapt/internal/chaos"
	"archadapt/internal/fleet"
)

// groupDigests pins what the simulator computes, one SHA-256 per group, over
// the group's lines of testdata/digests.txt ("GROUP\tENTRY\tDIGEST", DIGEST
// the first 16 hex digits of the SHA-256 of the entry's text). A change that
// means to move no simulated number leaves all three alone; one that moves
// some on purpose re-pins the group and its lines together, and says why.
var groupDigests = map[string]string{
	"catalog":   "0fc0b2763e1d82647ec56f23a1aa09ff4caffb974bbf92c3b21c6748407a5ef9",
	"chaos":     "6814dff51515aa1274d9c5ad7e268f1d37938b62262e2712f8cc796dc2a4a7c5",
	"archadapt": "a7266efe83ef4873a16780076f1168f8e0688c3fbaa045e2214fca3ac605c1a3",
}

// digestGroups lists each group's entries in a fixed order, each with the
// text that is hashed for it:
//   - catalog: every catalog entry's per-app summaries under -mode both
//     (control and adaptive) and -mode migrate (pinned and migrating), plus
//     backbone-rescue with ranked=false under -mode migrate;
//   - chaos: chaos.Fingerprint of Generate(0..127), with Adaptive false and
//     true;
//   - archadapt: what the command prints, stdout then stderr, for six
//     variants of the paper's evaluation.
var digestGroups = []struct {
	name    string
	entries func(t *testing.T, add func(entry, text string))
}{
	{"catalog", func(t *testing.T, add func(entry, text string)) {
		for _, e := range fleet.Catalog() {
			add(e.Name+" both", summaries(t, e.Opts, runs{{"control", false, e.Opts.Migration.Enabled}, {"adaptive", true, e.Opts.Migration.Enabled}}))
			add(e.Name+" migrate", summaries(t, e.Opts, migrateRuns))
		}
		e, err := fleet.ScenarioByName("backbone-rescue")
		if err != nil {
			t.Fatal(err)
		}
		e.Opts.Migration.Ranked = false
		add("backbone-rescue migrate ranked=false", summaries(t, e.Opts, migrateRuns))
	}},
	{"chaos", func(t *testing.T, add func(entry, text string)) {
		for seed := uint64(0); seed < 128; seed++ {
			for _, adaptive := range []bool{false, true} {
				o := chaos.Generate(seed)
				o.Adaptive = adaptive
				res, err := fleet.RunScenario(o)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("seed %d adaptive=%v", seed, adaptive), chaos.Fingerprint(res))
			}
		}
	}},
	{"archadapt", func(t *testing.T, add func(entry, text string)) {
		for _, args := range []string{"", "-seed 7", "-fig 11", "-caching -settle 20", "-cold-remos", "-smart"} {
			var stdout, stderr bytes.Buffer
			c, err := parseArgs(strings.Fields(args), &stderr)
			if err != nil {
				t.Fatal(err)
			}
			execute(c, &stdout, &stderr)
			add(strings.TrimSpace("archadapt "+args), stdout.String()+stderr.String())
		}
	}},
}

// runs are the fleet runs of one command line: a label, whether repairs run
// and whether migration is enabled.
type runs []struct {
	label               string
	adaptive, migrating bool
}

var migrateRuns = runs{{"pinned", true, false}, {"migrating", true, true}}

// summaries runs base once per run and renders every app's summary. The
// runs are untraced, so no summary holds a pointer.
func summaries(t *testing.T, base fleet.ScenarioOptions, rs runs) string {
	var b strings.Builder
	for _, r := range rs {
		o := base
		o.Adaptive, o.Migration.Enabled = r.adaptive, r.migrating
		res, err := fleet.RunScenario(o)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n", r.label)
		for _, s := range res.Summaries {
			fmt.Fprintf(&b, "%+v\n", s)
		}
	}
	return b.String()
}

// TestNothingMoved runs the catalog, the chaos seeds and the paper's
// evaluation and compares each group's digest with its pin. On a mismatch it
// names the group and the first entry whose digest differs from
// testdata/digests.txt, and logs the group's fresh lines and digest.
func TestNothingMoved(t *testing.T) {
	pinned := readDigests(t)
	for _, g := range digestGroups {
		var lines []string
		g.entries(t, func(entry, text string) {
			sum := sha256.Sum256([]byte(text))
			lines = append(lines, fmt.Sprintf("%s\t%s\t%x", g.name, entry, sum[:8]))
		})
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(lines, "\n"))))
		if got == groupDigests[g.name] {
			continue
		}
		old, first := pinned[g.name], ""
		for i, l := range lines {
			if i >= len(old) || old[i] != l {
				first = strings.Split(l, "\t")[1]
				break
			}
		}
		switch {
		case first == "" && len(old) > len(lines):
			first = strings.Split(old[len(lines)], "\t")[1] + " (no longer run)"
		case first == "":
			first = "none (testdata/digests.txt is not what the pin hashes)"
		}
		t.Errorf("group %s moved: first entry that differs: %s; digest %s, pinned %q", g.name, first, got, groupDigests[g.name])
		t.Logf("fresh lines of group %s:\n%s", g.name, strings.Join(lines, "\n"))
	}
}

// readDigests reads testdata/digests.txt, by group in file order.
func readDigests(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open("testdata/digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		group, _, _ := strings.Cut(sc.Text(), "\t")
		out[group] = append(out[group], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
