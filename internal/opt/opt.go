package opt

import (
	"fmt"
	"strings"

	"cftcg/internal/analysis"
	"cftcg/internal/coverage"
	"cftcg/internal/ir"
)

// maxRounds caps the pass-pipeline fixpoint iterations; the pipeline stops
// early when a full round changes nothing.
const maxRounds = 6

// Config bounds one pipeline run.
type Config struct {
	// LockstepCases / LockstepSteps size the random half of the differential
	// fallback (defaults 32 cases × 48 steps).
	LockstepCases int
	LockstepSteps int
	// Seed drives the random lockstep inputs (default 1).
	Seed int64
	// Corpus adds concrete suite cases (raw tuple streams) to every
	// lockstep check — campaign corpora make the differential gate sharp
	// exactly where the program is actually exercised.
	Corpus [][]byte
}

// PassRun records one validated pass application.
type PassRun struct {
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Changes int    `json:"changes"`
	// Verdict is "proved" (abstract product proof), "lockstep" (differential
	// fallback), or "reverted" (validation rejected the rewrite; it was
	// discarded).
	Verdict string `json:"verdict"`
}

// Stats summarizes a pipeline run.
type Stats struct {
	Program    string    `json:"program"`
	InitBefore int       `json:"initBefore"`
	StepBefore int       `json:"stepBefore"`
	InitAfter  int       `json:"initAfter"`
	StepAfter  int       `json:"stepAfter"`
	Rounds     int       `json:"rounds"`
	Folded     int       `json:"folded"`
	Threaded   int       `json:"threaded"`
	Copies     int       `json:"copies"`
	CSE        int       `json:"cse"`
	DeadStores int       `json:"deadStores"`
	Compacted  int       `json:"compacted"`
	Proved     int       `json:"proved"`
	Lockstep   int       `json:"lockstep"`
	Reverted   int       `json:"reverted"`
	Passes     []PassRun `json:"passes,omitempty"`
}

// Before and After return total instruction counts.
func (s *Stats) Before() int { return s.InitBefore + s.StepBefore }
func (s *Stats) After() int  { return s.InitAfter + s.StepAfter }

// Reduction is the fractional instruction-count drop.
func (s *Stats) Reduction() float64 {
	if s.Before() == 0 {
		return 0
	}
	return 1 - float64(s.After())/float64(s.Before())
}

// Summary renders the one-line pass ledger.
func (s *Stats) Summary() string {
	return fmt.Sprintf(
		"%d -> %d instructions (-%.1f%%): folded %d, threaded %d, copies %d, cse %d, dead stores %d, compacted %d (%d rounds; %d proved, %d lockstep, %d reverted)",
		s.Before(), s.After(), 100*s.Reduction(),
		s.Folded, s.Threaded, s.Copies, s.CSE, s.DeadStores, s.Compacted,
		s.Rounds, s.Proved, s.Lockstep, s.Reverted)
}

// Optimize runs the pass pipeline over a verified program and returns the
// optimized clone plus per-pass statistics. The input program is never
// mutated. Every pass application is translation-validated: the strict
// verifier must accept the candidate and either the abstract product proof
// or VM-lockstep differential testing (against the *original* program, with
// the corpus plus seeded random cases) must fail to distinguish it; a
// rejected rewrite is reverted and counted, never shipped. The final
// program is additionally gated end-to-end against the original.
func Optimize(p *ir.Program, plan *coverage.Plan, cfg Config) (*ir.Program, *Stats, error) {
	if cfg.LockstepCases <= 0 {
		cfg.LockstepCases = 32
	}
	if cfg.LockstepSteps <= 0 {
		cfg.LockstepSteps = 48
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("opt: invalid input program: %w", err)
	}
	if err := analysis.VerifyStrict(p, plan); err != nil {
		return nil, nil, fmt.Errorf("opt: refusing unverified input: %w", err)
	}
	st := &Stats{Program: p.Name, InitBefore: len(p.Init), StepBefore: len(p.Step)}
	passes := []struct {
		name    string
		run     func(*ir.Program) int
		counter *int
	}{
		{"sccp", sccp, &st.Folded},
		{"jump-thread", jumpThread, &st.Threaded},
		{"copy-prop", copyProp, &st.Copies},
		{"cse", cse, &st.CSE},
		{"dse", dse, &st.DeadStores},
	}

	cur := cloneProg(p)
	for round := 1; round <= maxRounds; round++ {
		st.Rounds = round
		changed := false
		for _, ps := range passes {
			cand := cloneProg(cur)
			n := ps.run(cand)
			if n == 0 {
				continue
			}
			verdict := pipelineValidate(p, cur, cand, plan, cfg)
			st.Passes = append(st.Passes, PassRun{Round: round, Name: ps.name, Changes: n, Verdict: verdict})
			switch verdict {
			case "proved":
				st.Proved++
			case "lockstep":
				st.Lockstep++
			case "reverted":
				st.Reverted++
				continue // keep cur; the rewrite is discarded
			}
			*ps.counter += n
			cur = cand
			changed = true
		}
		if !changed {
			break
		}
	}

	// Compaction changes the program shape; it is validated purely by
	// verification + lockstep against the original.
	cand := cloneProg(cur)
	if n := compact(cand); n > 0 || cand.NumRegs != cur.NumRegs {
		verdict := "lockstep"
		if cand.Validate() != nil || analysis.VerifyStrict(cand, plan) != nil ||
			Lockstep(p, cand, plan, cfg.Corpus, cfg.LockstepCases, cfg.LockstepSteps, cfg.Seed) != nil {
			verdict = "reverted"
		}
		st.Passes = append(st.Passes, PassRun{Round: st.Rounds, Name: "compact", Changes: n, Verdict: verdict})
		if verdict == "lockstep" {
			st.Compacted = n
			st.Lockstep++
			cur = cand
		} else {
			st.Reverted++
		}
	}

	// End-to-end gate: the shipped program must be verifier-clean and
	// lockstep-indistinguishable from the original. Failure here is a
	// pipeline bug and is reported as an error, not silently shipped.
	if err := cur.Validate(); err != nil {
		return nil, nil, fmt.Errorf("opt: %s: optimized program invalid: %w", p.Name, err)
	}
	if err := analysis.VerifyStrict(cur, plan); err != nil {
		return nil, nil, fmt.Errorf("opt: %s: optimized program failed verification: %w", p.Name, err)
	}
	if err := Lockstep(p, cur, plan, cfg.Corpus, cfg.LockstepCases, cfg.LockstepSteps, cfg.Seed); err != nil {
		return nil, nil, fmt.Errorf("opt: %s: final translation validation failed: %w", p.Name, err)
	}
	st.InitAfter, st.StepAfter = len(cur.Init), len(cur.Step)
	return cur, st, nil
}

// pipelineValidate checks one shape-preserving pass application: strict
// verification, then the abstract product proof against the pre-pass
// program, then the lockstep fallback against the original.
func pipelineValidate(orig, pre, cand *ir.Program, plan *coverage.Plan, cfg Config) string {
	if cand.Validate() != nil || analysis.VerifyStrict(cand, plan) != nil {
		return "reverted"
	}
	if ProveEquiv(pre, cand) {
		return "proved"
	}
	if Lockstep(orig, cand, plan, cfg.Corpus, cfg.LockstepCases, cfg.LockstepSteps, cfg.Seed) == nil {
		return "lockstep"
	}
	return "reverted"
}

// DeadStoreWarnings counts the verifier's dead-store lint findings — the
// before/after metric `cftcg analyze -stats` and modelinfo report.
func DeadStoreWarnings(p *ir.Program, plan *coverage.Plan) int {
	n := 0
	for _, is := range analysis.Verify(p, plan) {
		if is.Sev == analysis.SevWarn && strings.Contains(is.Msg, "dead store") {
			n++
		}
	}
	return n
}
