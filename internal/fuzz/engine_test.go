package fuzz

import (
	"bytes"
	"testing"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/model"
	"cftcg/internal/vm"
)

// switchOnly builds the minimal model for metric arithmetic: one Switch
// decision with two outcomes (2 branch slots total).
func switchOnly(t *testing.T) *codegen.Compiled {
	t.Helper()
	b := model.NewBuilder("SwitchOnly")
	in := b.Inport("u", model.Int8)
	out := b.Switch(in, b.ConstT(model.Int32, 1), b.ConstT(model.Int32, 0))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if c.Plan.NumBranches != 2 {
		t.Fatalf("want 2 branches, got %d", c.Plan.NumBranches)
	}
	return c
}

// TestIterationDifferenceMetric checks Algorithm 1's arithmetic on a case
// with hand-computable iteration coverage, in the spirit of the Figure 6
// worked example (sum of per-iteration branch-coverage differences).
func TestIterationDifferenceMetric(t *testing.T) {
	c := switchOnly(t)

	// Constant input: only the first iteration differs from the (empty)
	// previous coverage.
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	metric, _, newAny := e.RunInput([]byte{1, 1, 1})
	if metric != 1 {
		t.Errorf("constant input: want metric 1, got %d", metric)
	}
	if newAny != 1 {
		t.Errorf("constant input: want 1 new branch, got %d", newAny)
	}

	// Alternating input: each flip toggles two branch slots.
	e2 := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	metric2, _, new2 := e2.RunInput([]byte{1, 0, 1})
	// iter1: {T} vs {} -> 1; iter2: {F} vs {T} -> 2; iter3: {T} vs {F} -> 2.
	if metric2 != 5 {
		t.Errorf("alternating input: want metric 5, got %d", metric2)
	}
	if new2 != 2 {
		t.Errorf("alternating input: want 2 new branches, got %d", new2)
	}
}

// TestFigure6Schematic reproduces the shape of the paper's Figure 6: three
// iterations with coverage sets {A}, {A,B}, {B} over a 2-branch decision
// yield metric 1 + 1 + 1 ... adapted to our Switch: the exact sequence
// T, T, F gives 1 (iter1) + 0 (iter2) + 2 (iter3) = 3.
func TestFigure6Schematic(t *testing.T) {
	c := switchOnly(t)
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	metric, _, _ := e.RunInput([]byte{1, 1, 0})
	if metric != 3 {
		t.Errorf("want metric 3 (= 1+0+2), got %d", metric)
	}
}

func TestShortInputDiscarded(t *testing.T) {
	b := model.NewBuilder("TwoField")
	x := b.Inport("x", model.Int32)
	y := b.Inport("y", model.Int32)
	b.Outport("s", model.Int32, b.Add2(x, y))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e := MustEngine(c, Options{Seed: 1, MaxExecs: 1})
	before := e.steps
	// 11 bytes = one full 8-byte tuple + 3 trailing bytes (discarded).
	e.RunInput(make([]byte, 11))
	if got := e.steps - before; got != 1 {
		t.Errorf("trailing bytes must be discarded: want 1 step, got %d", got)
	}
}

func TestEngineRunFindsCoverage(t *testing.T) {
	b := model.NewBuilder("Gated")
	u := b.Inport("u", model.Int32)
	// A chain requiring specific magnitudes: |u| in narrow band.
	a := b.Abs(u)
	band := b.And(b.Rel(">", a, b.ConstT(model.Int32, 1000)), b.Rel("<", a, b.ConstT(model.Int32, 1010)))
	out := b.Switch(band, b.ConstT(model.Int32, 7), b.ConstT(model.Int32, 3))
	b.Outport("y", model.Int32, out)
	c, err := codegen.Compile(b.Model())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	e := MustEngine(c, Options{Seed: 42, MaxExecs: 30000})
	res := e.Run()
	if res.Report.Decision() < 100 {
		t.Errorf("fuzzer should fully cover the gated switch: got %.1f%% decision (uncovered %v)",
			res.Report.Decision(), res.Report.UncoveredDecisions)
	}
	if len(res.Suite.Cases) == 0 {
		t.Error("no test cases emitted")
	}
	if res.Corpus == 0 {
		t.Error("corpus stayed empty")
	}
	if len(res.Timeline) < 2 {
		t.Error("timeline not sampled")
	}
}

func TestEngineDeterministicWithSeed(t *testing.T) {
	c := switchOnly(t)
	r1 := MustEngine(c, Options{Seed: 7, MaxExecs: 2000}).Run()
	r2 := MustEngine(c, Options{Seed: 7, MaxExecs: 2000}).Run()
	if r1.Steps != r2.Steps || r1.Execs != r2.Execs || len(r1.Suite.Cases) != len(r2.Suite.Cases) {
		t.Errorf("same seed must replay identically: steps %d vs %d, execs %d vs %d, cases %d vs %d",
			r1.Steps, r2.Steps, r1.Execs, r2.Execs, len(r1.Suite.Cases), len(r2.Suite.Cases))
	}
}

// TestBackendInvariantCampaign: a campaign is a deterministic function of
// (seed, options, observable VM behavior), and the threaded backend every
// campaign runs is differentially proven observably identical to the switch
// reference. So the same campaign with its machine swapped for the reference
// must produce the same executions, steps, cases, findings and coverage,
// byte for byte — on every benchmark model, in both fuzzing modes.
func TestBackendInvariantCampaign(t *testing.T) {
	for _, ent := range benchmodels.All() {
		c, err := codegen.Compile(ent.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Seed: 3, MaxExecs: 1500, Directed: true},
			{Seed: 3, MaxExecs: 1500, Mode: ModeFuzzOnly},
		} {
			name := ent.Name + "/" + opts.Mode.String()
			th := MustEngine(c, opts)
			if _, ok := th.m.(*vm.Threaded); !ok {
				t.Fatalf("%s: campaign machine is %T, want *vm.Threaded", name, th.m)
			}
			ref := MustEngine(c, opts)
			ref.m = vm.New(c.Prog, ref.rec)
			ref.m.SetFuel(opts.Fuel)
			a, b := ref.Run(), th.Run()
			if a.Execs != b.Execs || a.Steps != b.Steps || a.Corpus != b.Corpus {
				t.Fatalf("%s: counters diverge across backends: execs %d/%d steps %d/%d corpus %d/%d",
					name, a.Execs, b.Execs, a.Steps, b.Steps, a.Corpus, b.Corpus)
			}
			ra, rb := a.Report, b.Report
			if ra.DecisionCovered != rb.DecisionCovered || ra.CondCovered != rb.CondCovered || ra.MCDCCovered != rb.MCDCCovered {
				t.Fatalf("%s: coverage diverges across backends: %v vs %v", name, ra, rb)
			}
			if len(a.Suite.Cases) != len(b.Suite.Cases) {
				t.Fatalf("%s: case counts diverge: %d vs %d", name, len(a.Suite.Cases), len(b.Suite.Cases))
			}
			for i := range a.Suite.Cases {
				if !bytes.Equal(a.Suite.Cases[i].Data, b.Suite.Cases[i].Data) {
					t.Fatalf("%s: case %d differs across backends", name, i)
				}
			}
			if len(a.Findings) != len(b.Findings) {
				t.Fatalf("%s: finding counts diverge: %d vs %d", name, len(a.Findings), len(b.Findings))
			}
			for i := range a.Findings {
				fa, fb := a.Findings[i], b.Findings[i]
				if fa.Kind != fb.Kind || fa.Site != fb.Site || fa.Count != fb.Count || !bytes.Equal(fa.Input, fb.Input) {
					t.Fatalf("%s: finding %d differs across backends: %v vs %v", name, i, fa, fb)
				}
			}
		}
	}
}
