package coverage

import "sync"

// Progress incrementally tracks campaign coverage percentages so timeline
// sampling stays cheap (no MCDC pairing per sample).
type Progress struct {
	Seen []uint8

	isOutcome       []bool
	dead            []bool
	covOut, covCond int
	totOut, totCond int
	fresh           []int // Fold's scratch list of newly seen slots
}

// NewProgress creates a progress tracker for a plan. Branch slots the plan
// marks dead are excluded from both denominators and numerators.
func NewProgress(p *Plan) *Progress {
	pr := &Progress{
		Seen:      make([]uint8, p.NumBranches),
		isOutcome: make([]bool, p.NumBranches),
		dead:      make([]bool, p.NumBranches),
	}
	for b := range pr.dead {
		pr.dead[b] = p.IsDead(b)
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		for k := 0; k < d.NumOutcomes; k++ {
			pr.isOutcome[d.OutcomeBase+k] = true
			if !pr.dead[d.OutcomeBase+k] {
				pr.totOut++
			}
		}
	}
	for i := range p.Conds {
		c := &p.Conds[i]
		for _, branch := range []int{c.BranchBase, c.BranchBase + 1} {
			if !pr.dead[branch] {
				pr.totCond++
			}
		}
	}
	return pr
}

// Absorb folds one iteration's coverage (a 0/1 hit array) into the campaign
// view, returning how many branch slots were newly covered.
func (pr *Progress) Absorb(curr []uint8) int {
	_, pr.fresh = Fold(curr, nil, pr.Seen, pr.fresh[:0])
	n := 0
	for _, b := range pr.fresh {
		if pr.dead[b] {
			// Statically "impossible" yet observed: an analysis bug, but
			// percentages must not exceed 100 — count nothing.
			continue
		}
		n++
		if pr.isOutcome[b] {
			pr.covOut++
		} else {
			pr.covCond++
		}
	}
	return n
}

// Decision returns the current Decision Coverage percentage.
func (pr *Progress) Decision() float64 {
	if pr.totOut == 0 {
		return 100
	}
	return 100 * float64(pr.covOut) / float64(pr.totOut)
}

// Condition returns the current Condition Coverage percentage.
func (pr *Progress) Condition() float64 {
	if pr.totCond == 0 {
		return 100
	}
	return 100 * float64(pr.covCond) / float64(pr.totCond)
}

// Covered returns the number of branch slots covered so far.
func (pr *Progress) Covered() int { return pr.covOut + pr.covCond }

// SharedProgress is a mutex-guarded Progress for use as the global coverage
// view of a multi-shard campaign: every shard folds its covered-branch
// bitmap in from its own goroutine, and the status plane reads percentages
// concurrently. Absorb's return value — how many slots were *globally* new —
// is what gates cross-shard corpus broadcasts.
type SharedProgress struct {
	mu sync.Mutex
	pr *Progress
}

// NewShared creates a thread-safe progress tracker for a plan.
func NewShared(p *Plan) *SharedProgress {
	return &SharedProgress{pr: NewProgress(p)}
}

// Absorb folds a covered-branch bitmap into the global view, returning how
// many branch slots were new to the whole campaign.
func (sp *SharedProgress) Absorb(seen []uint8) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Absorb(seen)
}

// Decision returns the global Decision Coverage percentage.
func (sp *SharedProgress) Decision() float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Decision()
}

// Condition returns the global Condition Coverage percentage.
func (sp *SharedProgress) Condition() float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Condition()
}

// Covered returns the number of branch slots covered campaign-wide.
func (sp *SharedProgress) Covered() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.pr.Covered()
}
