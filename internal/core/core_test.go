package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/fuzz"
)

func solarpv(t *testing.T) *System {
	t.Helper()
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := FromModel(e.Build())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSaveLoadRoundTrip(t *testing.T) {
	sys := solarpv(t)
	path := filepath.Join(t.TempDir(), "solarpv.slx")
	if err := sys.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.BranchCount() != sys.BranchCount() {
		t.Errorf("branch count changed across save/load: %d -> %d",
			sys.BranchCount(), back.BranchCount())
	}
	if back.Layout().TupleSize != sys.Layout().TupleSize {
		t.Error("layout changed across save/load")
	}
}

func TestLoadRejectsMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/path.slx"); err == nil {
		t.Error("expected error")
	}
}

// TestReplayMatchesCampaignCoverage: replaying the suite a fuzzing campaign
// emitted must reproduce at least the campaign's decision coverage — the
// emitted cases are exactly the inputs that triggered new coverage.
func TestReplayMatchesCampaignCoverage(t *testing.T) {
	sys := solarpv(t)
	res, err := sys.Fuzz(fuzz.Options{Seed: 11, MaxExecs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suite.Cases) == 0 {
		t.Fatal("campaign emitted no cases")
	}
	var raw [][]byte
	for _, c := range res.Suite.Cases {
		raw = append(raw, c.Data)
	}
	rep, _ := sys.Replay(raw)
	if rep.DecisionCovered < res.Report.DecisionCovered {
		t.Errorf("replay covers %d decision outcomes, campaign had %d",
			rep.DecisionCovered, res.Report.DecisionCovered)
	}
	if rep.CondCovered < res.Report.CondCovered {
		t.Errorf("replay condition coverage dropped: %d < %d",
			rep.CondCovered, res.Report.CondCovered)
	}
}

// TestReplayReproducesCampaignMCDC: the emitted suite carries every MCDC
// (condition vector, outcome) pair the engine counted, so replaying it on a
// fresh recorder reproduces the campaign's MCDC coverage exactly — not only
// its decision and condition coverage — on every benchmark model. The
// minimized suite must reproduce all three exactly too: minimization keeps
// a case for a pair as well as for a branch.
func TestReplayReproducesCampaignMCDC(t *testing.T) {
	for _, e := range benchmodels.All() {
		t.Run(e.Name, func(t *testing.T) {
			sys, err := FromModel(e.Build())
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Fuzz(fuzz.Options{Seed: 3, MaxExecs: 4000, Directed: true})
			if err != nil {
				t.Fatal(err)
			}
			var raw [][]byte
			for _, c := range res.Suite.Cases {
				raw = append(raw, c.Data)
			}
			rep, _ := sys.Replay(raw)
			if rep.MCDCCovered != res.Report.MCDCCovered || rep.MCDCTotal != res.Report.MCDCTotal {
				t.Errorf("replayed suite of %d cases: MCDC %d/%d, campaign reported %d/%d",
					len(raw), rep.MCDCCovered, rep.MCDCTotal, res.Report.MCDCCovered, res.Report.MCDCTotal)
			}

			var min [][]byte
			for _, c := range fuzz.Minimize(sys.Compiled, res.Suite.Cases) {
				min = append(min, c.Data)
			}
			mrep, _ := sys.Replay(min)
			got := [3]int{mrep.DecisionCovered, mrep.CondCovered, mrep.MCDCCovered}
			want := [3]int{res.Report.DecisionCovered, res.Report.CondCovered, res.Report.MCDCCovered}
			if got != want {
				t.Errorf("minimized suite of %d/%d cases: decision/condition/MCDC covered %v, campaign reported %v",
					len(min), len(raw), got, want)
			}
		})
	}
}

func TestWriteSuite(t *testing.T) {
	sys := solarpv(t)
	res, err := sys.Fuzz(fuzz.Options{Seed: 5, MaxExecs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "suite")
	if err := sys.WriteSuite(dir, res.Suite); err != nil {
		t.Fatalf("WriteSuite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	bins := 0
	haveCSV := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".bin") {
			bins++
		}
		if e.Name() == "suite.csv" {
			haveCSV = true
		}
	}
	if bins != len(res.Suite.Cases) || !haveCSV {
		t.Errorf("suite dir contents: %d bins (want %d), csv=%v", bins, len(res.Suite.Cases), haveCSV)
	}
}

func TestGenerateFuzzCodeShape(t *testing.T) {
	sys := solarpv(t)
	code := sys.GenerateFuzzCode()
	if !strings.Contains(code.Driver, "FuzzTestOneInput") {
		t.Error("driver missing entry point")
	}
	if !strings.Contains(code.Driver, "int dataLen = 9") {
		t.Error("driver missing Figure 3's dataLen = 9")
	}
	if !strings.Contains(code.Step, "CoverageStatistics(") {
		t.Error("step function missing instrumentation")
	}
	if !strings.Contains(code.Init, "SolarPV_init") {
		t.Error("init function missing")
	}
}

func TestTraceVCD(t *testing.T) {
	sys := solarpv(t)
	data := make([]byte, 3*sys.Layout().TupleSize)
	data[0] = 1 // Enable on first step
	var sb strings.Builder
	if err := sys.Trace(&sb, data); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$scope module SolarPV $end",
		"in_Enable", "in_Power", "out_Ret",
		"$enddefinitions $end", "#0", "#3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
}

func TestReadSeedDir(t *testing.T) {
	sys := solarpv(t)
	res, err := sys.Fuzz(fuzz.Options{Seed: 6, MaxExecs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "suite")
	if err := sys.WriteSuite(dir, res.Suite); err != nil {
		t.Fatal(err)
	}
	seeds, err := ReadSeedDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(res.Suite.Cases) {
		t.Fatalf("seeds: %d, want %d", len(seeds), len(res.Suite.Cases))
	}
	// Resuming from the seeds must reproduce the campaign's coverage with
	// almost no additional work.
	resumed, err := sys.Fuzz(fuzz.Options{Seed: 7, MaxExecs: int64(len(seeds)) + 10, SeedInputs: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Report.DecisionCovered < res.Report.DecisionCovered {
		t.Errorf("resume lost coverage: %d < %d",
			resumed.Report.DecisionCovered, res.Report.DecisionCovered)
	}
	if _, err := ReadSeedDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing dir should error")
	}
}

func TestConvertCase(t *testing.T) {
	sys := solarpv(t)
	data := make([]byte, 2*sys.Layout().TupleSize)
	var sb strings.Builder
	if err := sys.ConvertCase(&sb, data); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "step,Enable,Power,PanelID") {
		t.Errorf("CSV header: %s", sb.String())
	}
}
