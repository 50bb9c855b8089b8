package coverage

import "encoding/binary"

// Recorder accumulates coverage during execution. It is shared by the fast
// VM (compiled fuzz code) and the interpretive simulator, which is what lets
// the differential tests compare the two paths bit-for-bit.
//
// Per step, Curr mirrors the paper's g_CurrCov array: Curr[branch] is 1 iff
// that branch element triggered during the current model iteration and 0
// otherwise. Every slot of Curr and Total holds 0 or 1, never another value;
// Fold relies on this to compare eight slots per machine word. The
// cumulative Total array and the per-decision condition-vector sets (for
// MCDC) persist across the whole campaign.
type Recorder struct {
	plan *Plan

	// Curr is the per-iteration branch hit array (g_CurrCov); each slot is
	// 0 or 1.
	Curr []uint8
	// Total is the cumulative branch hit array (g_TotalCov).
	Total []uint8

	// condVec holds, per decision, the condition values observed since the
	// decision last resolved (bit per condition slot).
	condVec []uint32
	// vecs records, per decision, the set of (condition vector, outcome)
	// pairs seen — the raw material for MCDC pairing. Bounded per decision.
	vecs []map[uint64]struct{}
	// lastVec caches, per decision, the most recent (vector, outcome) key
	// plus one (0 = none). Decisions resolve the same way step after step on
	// most inputs, so this single entry skips the map insert — the hottest
	// operation in VM profiles — in the common case. Purely an accelerator:
	// it only elides inserts of keys already present in vecs.
	lastVec []uint64
	// vectors counts the (vector, outcome) pairs stored across vecs.
	vectors int

	// condMeta/decMeta flatten the plan fields Cond and Outcome touch into
	// compact contiguous records. Plan entries carry labels and slices the
	// hot path never reads; chasing them costs a cache miss per probe.
	condMeta []condMeta
	decMeta  []decMeta
}

type condMeta struct {
	branchBase uint32
	decID      uint32
	bit        uint32 // 1 << slot
}

type decMeta struct {
	outcomeBase uint32
	hasConds    bool
}

// maxVectorsPerDecision bounds MCDC bookkeeping per decision. 1<<16 packed
// vectors cover every decision with up to 16 conditions exhaustively.
const maxVectorsPerDecision = 1 << 16

// NewRecorder creates a recorder for the given plan.
func NewRecorder(p *Plan) *Recorder {
	r := &Recorder{
		plan:    p,
		Curr:    make([]uint8, p.NumBranches),
		Total:   make([]uint8, p.NumBranches),
		condVec: make([]uint32, len(p.Decisions)),
		vecs:    make([]map[uint64]struct{}, len(p.Decisions)),
		lastVec: make([]uint64, len(p.Decisions)),

		condMeta: make([]condMeta, len(p.Conds)),
		decMeta:  make([]decMeta, len(p.Decisions)),
	}
	for i := range r.vecs {
		r.vecs[i] = make(map[uint64]struct{})
	}
	for i := range p.Conds {
		c := &p.Conds[i]
		r.condMeta[i] = condMeta{
			branchBase: uint32(c.BranchBase),
			decID:      uint32(c.DecisionID),
			bit:        uint32(1) << uint(c.Slot),
		}
	}
	for i := range p.Decisions {
		d := &p.Decisions[i]
		r.decMeta[i] = decMeta{
			outcomeBase: uint32(d.OutcomeBase),
			hasConds:    len(d.CondIDs) > 0,
		}
	}
	return r
}

// Plan returns the plan this recorder was built for.
func (r *Recorder) Plan() *Plan { return r.plan }

// BeginStep clears the per-iteration coverage (Algorithm 1 line 11).
func (r *Recorder) BeginStep() {
	for i := range r.Curr {
		r.Curr[i] = 0
	}
	for i := range r.condVec {
		r.condVec[i] = 0
	}
}

// Cond records one condition evaluation: both the branch hit (true or false
// polarity) and the bit in the owning decision's condition vector.
func (r *Recorder) Cond(condID int, v bool) {
	c := r.condMeta[condID]
	branch := c.branchBase
	if !v {
		branch++
	}
	r.Curr[branch] = 1
	r.Total[branch] = 1
	if v {
		r.condVec[c.decID] |= c.bit
	} else {
		r.condVec[c.decID] &^= c.bit
	}
}

// Outcome records a decision resolving to the given outcome index, snapshots
// the condition vector for MCDC, and resets the vector for the next
// evaluation. This is the paper's CoverageStatistics() entry point.
func (r *Recorder) Outcome(decID, outcome int) {
	d := r.decMeta[decID]
	branch := int(d.outcomeBase) + outcome
	r.Curr[branch] = 1
	r.Total[branch] = 1
	if d.hasConds {
		key := uint64(r.condVec[decID]) | uint64(outcome)<<32
		if r.lastVec[decID] != key+1 {
			set := r.vecs[decID]
			if n := len(set); n < maxVectorsPerDecision {
				set[key] = struct{}{}
				r.lastVec[decID] = key + 1
				if len(set) > n {
					r.vectors++
				}
			}
		}
		r.condVec[decID] = 0
	}
}

// ResetAll clears all accumulated coverage (between campaigns).
func (r *Recorder) ResetAll() {
	r.BeginStep()
	for i := range r.Total {
		r.Total[i] = 0
	}
	for i := range r.vecs {
		r.vecs[i] = make(map[uint64]struct{})
	}
	clear(r.lastVec)
	r.vectors = 0
}

// Vectors returns how many distinct (condition vector, outcome) pairs the
// recorder holds — the MCDC raw material. It grows exactly when an
// execution exercises a pair no earlier execution did.
func (r *Recorder) Vectors() int { return r.vectors }

// CoveredBranches counts branch IDs hit so far.
func (r *Recorder) CoveredBranches() int {
	n := 0
	for _, v := range r.Total {
		if v != 0 {
			n++
		}
	}
	return n
}

// Merge folds another recorder's cumulative coverage into r (used to average
// repeated campaigns or to union per-worker results).
func (r *Recorder) Merge(other *Recorder) {
	for i, v := range other.Total {
		if v != 0 {
			r.Total[i] = 1
		}
	}
	for d, set := range other.vecs {
		dst := r.vecs[d]
		for k := range set {
			n := len(dst)
			if n >= maxVectorsPerDecision {
				break
			}
			dst[k] = struct{}{}
			if len(dst) > n {
				r.vectors++
			}
		}
	}
}

// Snapshot returns a copy of the cumulative branch array.
func (r *Recorder) Snapshot() []uint8 {
	out := make([]uint8, len(r.Total))
	copy(out, r.Total)
	return out
}

// Fold folds one iteration's hit array curr into the cumulative array seen
// and, when last is non-nil, into the previous iteration's array last. It
// returns Algorithm 1's Iteration Difference Coverage metric — the number of
// slots where curr differs from last, 0 when last is nil — and leaves last
// equal to curr. Every slot newly set in seen is appended to fresh in
// ascending order. last and seen must be at least as long as curr.
//
// All three arrays hold 0/1 slots (the Recorder invariant), so Fold reads
// eight slots per uint64: the popcount of curr^last is the word's share of
// the metric, last is written back only when they differ, and only a word
// where curr&^seen is nonzero is walked slot by slot. A slot holding any
// other value would be miscounted.
func Fold(curr, last, seen []uint8, fresh []int) (metric int, _ []int) {
	n := len(curr)
	seen = seen[:n]
	if last != nil {
		last = last[:n]
	}
	if n < 8 {
		if last != nil {
			for k, c := range curr {
				if c != last[k] {
					metric++
					last[k] = c
				}
			}
		}
		return metric, foldNew(curr, seen, 0, fresh)
	}
	for b := 0; b < n; b += 8 {
		if b > n-8 {
			// Tail: re-read the last eight slots. Those before b are folded
			// already — they equal last and are marked in seen — so they add
			// nothing to the metric or to fresh.
			b = n - 8
		}
		// Full slice expressions give each word a fixed length and
		// capacity, which keeps bounds checks and spills out of the loop.
		cw, sw := curr[b:b+8:b+8], seen[b:b+8:b+8]
		c := binary.LittleEndian.Uint64(cw)
		if last != nil {
			lw := last[b : b+8 : b+8]
			if d := c ^ binary.LittleEndian.Uint64(lw); d != 0 {
				// Each byte of d is 0 or 1, so its popcount is its byte
				// sum, which one multiply gathers into the top byte.
				// (bits.OnesCount64 checks for POPCNT at run time on
				// baseline amd64, and its fallback call spills the loop.)
				metric += int(d * 0x0101010101010101 >> 56)
				binary.LittleEndian.PutUint64(lw, c)
			}
		}
		if c&^binary.LittleEndian.Uint64(sw) != 0 {
			fresh = foldNew(cw, sw, b, fresh)
		}
	}
	return metric, fresh
}

// foldNew marks the slots hit in curr but not yet in seen, appending their
// indices (offset by base) to fresh.
func foldNew(curr, seen []uint8, base int, fresh []int) []int {
	for k, v := range curr {
		if v != 0 && seen[k] == 0 {
			seen[k] = 1
			fresh = append(fresh, base+k)
		}
	}
	return fresh
}
