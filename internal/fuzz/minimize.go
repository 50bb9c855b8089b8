package fuzz

import (
	"sort"

	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/model"
	"cftcg/internal/testcase"
	"cftcg/internal/vm"
)

// Minimize greedily reduces a test suite to a subset with the same model
// coverage: cases are replayed in descending new-branch order and kept only
// when they contribute a branch or an MCDC (decision, condition vector,
// outcome) pair the kept set has not reached. Every case replays from Init,
// so the kept set's pairs are exactly the suite's. The classic test-suite
// reduction pass a generation tool runs before handing the suite to
// engineers.
func Minimize(c *codegen.Compiled, cases []testcase.Case) []testcase.Case {
	r := newReplayer(c)
	type scored struct {
		tc   testcase.Case
		bits []uint8
	}
	all := make([]scored, len(cases))
	for i, tc := range cases {
		all[i] = scored{tc: tc, bits: make([]uint8, c.Plan.NumBranches)}
		r.replay(tc.Data, all[i].bits)
	}
	// Largest contributors first makes the greedy pass effective.
	sort.SliceStable(all, func(i, j int) bool {
		return count(all[i].bits) > count(all[j].bits)
	})

	// The greedy pass replays every case onto one recorder. A case that adds
	// neither a branch nor a pair leaves its pair set unchanged, so the
	// recorder's pair count is always the kept set's.
	r.rec.ResetAll()
	kept := make([]testcase.Case, 0, len(cases))
	covered := make([]uint8, c.Plan.NumBranches)
	for _, s := range all {
		pairs := r.rec.Vectors()
		r.replay(s.tc.Data, nil)
		adds := r.rec.Vectors() > pairs
		for b, v := range s.bits {
			if v != 0 && covered[b] == 0 {
				covered[b] = 1
				adds = true
			}
		}
		if adds {
			kept = append(kept, s.tc)
		}
	}
	return kept
}

func count(bits []uint8) int {
	n := 0
	for _, v := range bits {
		if v != 0 {
			n++
		}
	}
	return n
}

// Trim shortens one test case while preserving its coverage: tuples are
// removed in halving passes (drop the back half, the front half, then
// single tuples) and a removal is kept only if the case still covers every
// branch it covered before. The per-input analogue of suite minimization —
// what LibFuzzer's -minimize_crash does for crashes, applied to coverage.
func Trim(c *codegen.Compiled, data []byte) []byte {
	tuple := c.Prog.TupleSize()
	if tuple == 0 || len(data) < 2*tuple {
		return data
	}
	r := newReplayer(c)
	coverageOf := func(d []byte) []uint8 {
		bits := make([]uint8, c.Plan.NumBranches)
		r.replay(d, bits)
		return bits
	}
	covers := func(have, want []uint8) bool {
		for b, v := range want {
			if v != 0 && have[b] == 0 {
				return false
			}
		}
		return true
	}

	want := coverageOf(data)
	cur := append([]byte(nil), data...)

	// Halving passes from the back, then the front.
	for len(cur) >= 2*tuple {
		nt := len(cur) / tuple
		half := (nt / 2) * tuple
		if half == 0 {
			break
		}
		if cand := cur[:len(cur)-half]; covers(coverageOf(cand), want) {
			cur = append([]byte(nil), cand...)
			continue
		}
		if cand := cur[half:]; covers(coverageOf(cand), want) {
			cur = append([]byte(nil), cand...)
			continue
		}
		break
	}
	// Single-tuple removal sweep.
	for i := 0; i < len(cur)/tuple; {
		cand := make([]byte, 0, len(cur)-tuple)
		cand = append(cand, cur[:i*tuple]...)
		cand = append(cand, cur[(i+1)*tuple:]...)
		if len(cand) > 0 && covers(coverageOf(cand), want) {
			cur = cand
			continue // same index now holds the next tuple
		}
		i++
	}
	return cur
}

// replayer re-executes test cases on the reference VM with a recorder
// attached — the replay Minimize and Trim judge cases by.
type replayer struct {
	c   *codegen.Compiled
	rec *coverage.Recorder
	m   *vm.Machine
	in  []uint64
}

func newReplayer(c *codegen.Compiled) *replayer {
	rec := coverage.NewRecorder(c.Plan)
	return &replayer{c: c, rec: rec, m: vm.New(c.Prog, rec), in: make([]uint64, len(c.Prog.In))}
}

// replay runs data from Init and, when bits is non-nil, marks in it every
// branch the case's steps hit. A case that hangs mid-replay keeps the
// coverage accumulated up to the abort.
func (r *replayer) replay(data []byte, bits []uint8) {
	r.rec.BeginStep()
	if r.m.Init() != nil {
		return
	}
	tuple := r.c.Prog.TupleSize()
	if tuple == 0 {
		return
	}
	for it := 0; it < len(data)/tuple; it++ {
		base := it * tuple
		for fi, f := range r.c.Prog.In {
			r.in[fi] = model.GetRaw(f.Type, data[base+f.Offset:])
		}
		r.rec.BeginStep()
		err := r.m.Step(r.in)
		if bits != nil {
			for b, v := range r.rec.Curr {
				if v != 0 {
					bits[b] = 1
				}
			}
		}
		if err != nil {
			break
		}
	}
}
