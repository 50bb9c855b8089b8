package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type resultFile struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Units     int                    `json:"units"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// loadResults reads every untraced result file under dir, by workload.
func loadResults(dir string) (map[string][]resultFile, error) {
	out := make(map[string][]resultFile)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && r.Workload != "" {
			out[r.Workload] = append(out[r.Workload], r)
		}
		return nil
	})
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, err
}

// side summarises one result set's runs of a workload: its correct runs,
// which alone are compared, and the failures over all of its runs.
type side struct {
	runs              []resultFile // correct runs
	incorrect         int
	attempted, failed int
}

func summarise(rs []resultFile) side {
	var s side
	for _, r := range rs {
		s.attempted += r.Attempted
		s.failed += r.Failed
		if r.Correct {
			s.runs = append(s.runs, r)
		} else {
			s.incorrect++
		}
	}
	return s
}

func (s side) failedFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func (s side) String() string {
	return fmt.Sprintf("%d correct runs, %d incorrect; %d of %d operations failed",
		len(s.runs), s.incorrect, s.failed, s.attempted)
}

// pairs matches the runs of A and B that share a seed; without any shared
// seed it pairs them in seed order.
func pairs(a, b []resultFile) [][2]resultFile {
	var out [][2]resultFile
	used := make([]bool, len(b))
	for _, ra := range a {
		for j, rb := range b {
			if !used[j] && rb.Seed == ra.Seed {
				used[j] = true
				out = append(out, [2]resultFile{ra, rb})
				break
			}
		}
	}
	if len(out) == 0 {
		for i := 0; i < len(a) && i < len(b); i++ {
			out = append(out, [2]resultFile{a[i], b[i]})
		}
	}
	return out
}

// compareMain compares result set B (a change) against A (its parent) by
// the rule of choosing-metrics §8: B improved a metric when it wins at
// least 9 in 10 pairs and its median beats A's by more than A's quartile
// spread; it is worse when its median is worse than A's by more than the
// metric's bound; a metric whose spread exceeds its bound is unresolved
// unless every run of B beats every run of A, and a gain needs at least 10
// pairs. Only runs whose checks passed are compared; when B fails a larger share of its operations than A, no
// metric of that workload counts as improved. A workload or metric missing
// on either side is unresolved. Exits 1 when any pairing is worse or
// unresolved for want of data, or B fails more; 2 on unusable input,
// including result sets that ran different amounts of work.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] <parent-results> <change-results>")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	setA, errA := loadResults(fs.Arg(0))
	setB, errB := loadResults(fs.Arg(1))
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "compare:", errA, errB)
		return 2
	}
	workloads := make(map[string]bool)
	for w := range setA {
		workloads[w] = true
	}
	for w := range setB {
		workloads[w] = true
	}
	for _, w := range sortedKeys(workloads) {
		units := make(map[int]bool)
		for _, r := range append(append([]resultFile(nil), setA[w]...), setB[w]...) {
			units[r.Units] = true
		}
		if len(units) > 1 {
			fmt.Fprintf(os.Stderr, "compare: %s runs differ in their amount of work (units %v); compare runs made with the same --seconds\n",
				w, sortedInts(units))
			return 2
		}
	}

	bad := false
	for _, w := range sortedKeys(workloads) {
		A, B := summarise(setA[w]), summarise(setB[w])
		ps := pairs(A.runs, B.runs)
		fmt.Printf("== %s: %d pairs\n   A: %v\n   B: %v\n", w, len(ps), A, B)
		bFailsMore := B.failedFrac() > A.failedFrac()
		if bFailsMore {
			bad = true
			fmt.Printf("   B fails a larger share of operations than A (%.4g > %.4g): no gain counts\n", B.failedFrac(), A.failedFrac())
		}
		if len(ps) == 0 {
			bad = true
			fmt.Printf("row %s: unresolved, no correct runs to pair\n\n", w)
			continue
		}
		fmt.Printf("%-16s %30s %30s %7s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
		var row []string
		for _, m := range spec.EndToEnd {
			var a, b []float64
			wins := 0
			for _, p := range ps {
				va, okA := p[0].Metrics[m.Name]
				vb, okB := p[1].Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				a, b = append(a, va.Value), append(b, vb.Value)
				if better(m.Better, vb.Value, va.Value) {
					wins++
				}
			}
			var v string
			switch {
			case len(a) < len(ps):
				v = fmt.Sprintf("unresolved: measured in %d of %d pairs", len(a), len(ps))
				bad = true
			default:
				v = judge(m.Better, m.Bound, a, b, wins)
				if v == "improved" && bFailsMore {
					v = "unresolved: B fails more"
				} else if v == "improved" && len(a) < 10 {
					v = "unresolved: improved in fewer than 10 pairs"
				}
			}
			if v == "worse" {
				bad = true
			}
			if v != "unchanged" {
				row = append(row, m.Name+" "+v)
			}
			if len(a) == 0 {
				fmt.Printf("%-16s %30s %30s %7s  %s\n", m.Name, "-", "-", "-", v)
				continue
			}
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			fmt.Printf("%-16s %30s %30s %3d/%-3d  %s\n", m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", ma, q1a, q3a),
				fmt.Sprintf("%.4g [%.4g, %.4g]", mb, q1b, q3b), wins, len(a), v)
		}
		if len(row) == 0 {
			row = []string{"all unchanged"}
		}
		fmt.Printf("row %s: %s\n\n", w, strings.Join(row, ", "))
	}
	if bad {
		return 1
	}
	return 0
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func better(dir string, x, than float64) bool {
	if dir == "higher" {
		return x > than
	}
	return x < than
}

func judge(dir string, bound float64, a, b []float64, wins int) string {
	if len(a) < 2 {
		return "unresolved"
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	gain := mb - ma
	if dir != "higher" {
		gain = -gain
	}
	if float64(wins) >= 0.9*float64(len(a)) && gain > q3a-q1a {
		return "improved"
	}
	if -gain > bound*math.Abs(ma) {
		return "worse"
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(dir, x, y) {
				allBetter = false
			}
		}
	}
	if ((q3a-q1a) > bound*math.Abs(ma) || (q3b-q1b) > bound*math.Abs(mb)) && !allBetter {
		return "unresolved"
	}
	return "unchanged"
}
