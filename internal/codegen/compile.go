package codegen

import (
	"cftcg/internal/analysis"
	"cftcg/internal/blocks"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/schedule"
)

// VerifyLowered, when set, makes Compile run the strict IR verifier over
// every lowered program and fail on any error-severity issue. Tests and CI
// set it once at startup; it is not meant to be toggled concurrently.
var VerifyLowered bool

// Compiled bundles every artifact of the fuzzing-code-generation pipeline:
// the analyzed design, the instrumentation plan, the entity index, and the
// lowered program ready for the VM.
type Compiled struct {
	Design *blocks.Design
	Plan   *coverage.Plan
	Index  *coverage.Index
	Prog   *ir.Program
}

// Compile runs the full front half of CFTCG on a model: parse/analyze,
// schedule conversion, branch instrumentation planning, and lowering to the
// executable program (the paper's Figure 2 left side).
func Compile(m *model.Model) (*Compiled, error) {
	d, err := blocks.Resolve(m)
	if err != nil {
		return nil, err
	}
	if err := schedule.Compute(d); err != nil {
		return nil, err
	}
	plan, ix, err := coverage.Build(d)
	if err != nil {
		return nil, err
	}
	prog, err := Lower(d, plan, ix)
	if err != nil {
		return nil, err
	}
	if VerifyLowered {
		if err := analysis.VerifyStrict(prog, plan); err != nil {
			return nil, err
		}
	}
	return &Compiled{Design: d, Plan: plan, Index: ix, Prog: prog}, nil
}
