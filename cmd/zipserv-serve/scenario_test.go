package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zipserv/internal/benchfmt"
)

// wallTimed names the scenarios whose rows depend on wall-time
// dispatch (disagg's paced decode replica, affinity's live waves), so
// only their gates are asserted here, not their numbers.
var wallTimed = map[string]bool{"disagg": true, "affinity": true}

// TestScenarios runs every scenario through the CLI with its win
// predicate armed, and checks each deterministic scenario's rows
// against its section of the checked-in BENCH_8.json snapshot: the
// virtual-time numbers are model outputs, so they are gated exactly.
func TestScenarios(t *testing.T) {
	f, err := os.Open("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := benchfmt.DecodeSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scenarioNames() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name+".csv")
			if err := runCLI([]string{"-scenario", name, "-require-win", "-csv", path}, io.Discard); err != nil {
				t.Fatal(err)
			}
			if wallTimed[name] {
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := benchfmt.ParseCompareCSV(strings.NewReader(string(data)))
			if err != nil {
				t.Fatal(err)
			}
			if want := snap.Compares[name]; !reflect.DeepEqual(rows, want) {
				t.Errorf("rows differ from BENCH_8.json\ngot CSV:\n%s\nwant rows: %v", data, want)
			}
		})
	}
}

// TestScenarioFlagValidation checks the CLI's rejections: an unknown
// scenario names the valid ones, and the scenario-only flags need
// -scenario.
func TestScenarioFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "bogus"}, `unknown scenario "bogus" (have prefix, chunking, adaptive, compress, disagg, affinity, chaos, policies)`},
		{[]string{"-scenario", "bogus", "-require-win"}, `unknown scenario "bogus"`},
		{[]string{"-require-win"}, "-require-win needs -scenario"},
		{[]string{"-live", "-require-win"}, "-require-win needs -scenario"},
		{[]string{"-csv", "out.csv"}, "-csv needs -scenario"},
		{[]string{"-compare", "-csv", "out.csv"}, "-csv needs -scenario"},
	} {
		err := runCLI(tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
