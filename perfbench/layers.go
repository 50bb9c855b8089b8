package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"cftcg/internal/analysis"
	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/ir"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
	"cftcg/internal/opt"
	"cftcg/internal/testcase"
	"cftcg/internal/vm"
	"cftcg/internal/wal"
)

const (
	probeStepsPerModel = 40000 // candidate stream length, in model iterations
	probeReps          = 3     // interleaved repetitions of each VM/engine pass
	walRecords         = 300
	probeJobExecs      = 4000 // per shard, for the campaign probe of non-daemon workloads
)

// vmConfig is one way of executing the same inputs: a backend over the
// original or the optimized program, with or without a coverage recorder.
type vmConfig struct {
	name      string
	kind      vm.BackendKind
	optimized bool
	record    bool
}

var vmConfigs = []vmConfig{
	{"vm.switch.ns_per_step", vm.BackendSwitch, false, true},
	{"vm.switch.norec_ns_per_step", vm.BackendSwitch, false, false},
	{"vm.threaded.ns_per_step", vm.BackendThreaded, false, true},
	{"vm.threaded.norec_ns_per_step", vm.BackendThreaded, false, false},
	{"vm.threaded_opt.ns_per_step", vm.BackendThreaded, true, true},
}

// probeInputs is one model's workload suite plus a seeded candidate stream
// from the public fuzz.Mutator, raw and decoded into per-step tuples.
type probeInputs struct {
	ms     *modelSuite
	raw    [][]byte
	tuples [][][]uint64
	steps  int64
	optim  *ir.Program
}

// layers replays the workload's own suites through each layer's public
// functions and returns the per-layer metrics, combined with the figures
// the traced main phase o already measured. Probe operations count in o.
func (e *env) layers(o *outcome) map[string]float64 {
	L := make(map[string]float64)
	L["fuzz.steps_per_exec"] = float64(o.steps) / float64(o.execs)
	L["fuzz.suite_mcdc_gap"] = float64(o.mcdcGap)
	L["mutate.suite_s"] = o.suiteWall
	for _, entry := range e.models {
		if pm := o.perModel[entry.Name]; pm != nil && pm[1] > 0 {
			L["model."+entry.Name+".execs_per_s"] = pm[0] / pm[1]
		}
	}

	e.operation(o, "bench.probe.compile", func(op int) error {
		var totals []float64
		for r := 0; r < probeReps; r++ {
			t0 := time.Now()
			if _, err := compileAll(e, op); err != nil {
				return err
			}
			totals = append(totals, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		L["codegen.compile_ms"] = median(totals)
		return nil
	})

	plateauExecs, plateauSecs := o.plateauExecs, o.plateauSecs
	if len(plateauExecs) == 0 {
		// The daemon reports no timelines: run one reference single-engine
		// campaign per model with the workload's engine options.
		ref := newOutcome()
		for i, ms := range o.suites {
			opts := ms.opts
			opts.Seed = subSeed(e.seed, 11, int64(i))
			e.operation(o, "bench.probe.plateau", func(op int) error {
				_, _, _, err := e.campaign(ref, op, ms, opts, nil)
				return err
			})
		}
		plateauExecs, plateauSecs = ref.plateauExecs, ref.plateauSecs
	}
	perRound := float64(len(e.models))
	L["fuzz.execs_to_plateau"] = mean(plateauExecs) * perRound
	L["fuzz.time_to_plateau_s"] = mean(plateauSecs) * perRound

	var inputs []*probeInputs
	e.operation(o, "bench.probe.inputs", func(op int) error {
		var mutNs, mutCalls float64
		for i, ms := range o.suites {
			pi, ns, calls, err := e.candidates(op, ms, subSeed(e.seed, 13, int64(i)))
			if err != nil {
				return err
			}
			mutNs += ns
			mutCalls += calls
			inputs = append(inputs, pi)
		}
		L["fuzz.mutate_ns"] = mutNs / mutCalls
		return nil
	})
	if len(inputs) == len(o.suites) {
		e.operation(o, "bench.probe.vm", func(op int) error { return e.probeVM(op, inputs, L) })
	}
	e.operation(o, "bench.probe.checkpoint", func(op int) error { return e.probeCheckpoint(op, o.suites, L) })
	e.operation(o, "bench.probe.wal", func(op int) error { return e.probeWAL(op, L) })
	if _, ok := o.layer["campaign.run_s"]; ok {
		for k, v := range o.layer {
			L[k] = v
		}
	} else {
		e.probeCampaign(o, o.suites, L)
	}
	e.operation(o, "bench.probe.mutate", func(op int) error { return e.probeMutate(op, o.suites, L) })
	return L
}

// candidates builds a model's probe inputs: its suite, then mutations of
// suite members until the stream holds probeStepsPerModel iterations.
func (e *env) candidates(op int, ms *modelSuite, seed int64) (*probeInputs, float64, float64, error) {
	prog := ms.c.Prog
	tuple := prog.TupleSize()
	maxTuples := ms.opts.MaxTuples
	if maxTuples == 0 {
		maxTuples = 64
	}
	mut := fuzz.NewMutator(prog.In, tuple, maxTuples, rand.New(rand.NewSource(seed)))
	mut.SetHints(codegen.FieldHints(prog))
	pi := &probeInputs{ms: ms}
	add := func(data []byte) {
		n := len(data) / tuple
		steps := make([][]uint64, n)
		for it := 0; it < n; it++ {
			t := make([]uint64, len(prog.In))
			for fi, f := range prog.In {
				t[fi] = model.GetRaw(f.Type, data[it*tuple+f.Offset:])
			}
			steps[it] = t
		}
		pi.raw = append(pi.raw, data)
		pi.tuples = append(pi.tuples, steps)
		pi.steps += int64(n)
	}
	parents := ms.cases
	if len(parents) == 0 {
		parents = [][]byte{mut.RandomTuple()}
	}
	for _, c := range ms.cases {
		add(c)
	}
	var ns, calls float64
	rng := rand.New(rand.NewSource(seed + 1))
	sp := e.tr.begin("fuzz.Mutator.Mutate", op, e.tr.op(op))
	for pi.steps < probeStepsPerModel && calls < 100000 {
		a, b := parents[rng.Intn(len(parents))], parents[rng.Intn(len(parents))]
		t0 := time.Now()
		cand := mut.Mutate(a, b)
		ns += float64(time.Since(t0).Nanoseconds())
		calls++
		add(cand)
	}
	e.tr.end(sp)

	var err error
	e.call("opt.Optimize", op, func() {
		pi.optim, _, err = opt.Optimize(prog, ms.c.Plan, opt.Config{Seed: seed, Corpus: ms.cases})
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("optimize %s: %w", ms.name, err)
	}
	return pi, ns, calls, nil
}

// runVM executes decoded inputs on one backend the way the fuzz driver
// does (init, then one step per tuple, stopping at a hang) and returns the
// iterations executed.
func runVM(b vm.Backend, rec *coverage.Recorder, inputs [][][]uint64) int64 {
	var steps int64
	for _, in := range inputs {
		if rec != nil {
			rec.BeginStep()
		}
		if b.Init() != nil {
			continue
		}
		for _, t := range in {
			if rec != nil {
				rec.BeginStep()
			}
			steps++
			if b.Step(t) != nil {
				break
			}
		}
	}
	return steps
}

// probeVM times every VM configuration and the engine's RunInput on the
// same inputs, interleaving repetitions so drift hits all of them alike.
func (e *env) probeVM(op int, inputs []*probeInputs, L map[string]float64) error {
	samples := make(map[string][]float64)
	var recSteps, engSteps, engExecs int64
	for r := 0; r < probeReps; r++ {
		for _, cfg := range vmConfigs {
			var ns float64
			var steps int64
			for _, pi := range inputs {
				prog := pi.ms.c.Prog
				if cfg.optimized {
					prog = pi.optim
				}
				var rec *coverage.Recorder
				if cfg.record {
					rec = coverage.NewRecorder(pi.ms.c.Plan)
				}
				b := vm.NewBackend(cfg.kind, prog, rec)
				d := e.call("vm."+cfg.kind.String()+".Step", op, func() { steps += runVM(b, rec, pi.tuples) })
				ns += float64(d.Nanoseconds())
			}
			samples[cfg.name] = append(samples[cfg.name], ns/float64(steps))
			if cfg.record && cfg.kind == vm.BackendSwitch && !cfg.optimized {
				recSteps = steps
			}
		}
		var ns float64
		engExecs = 0
		for _, pi := range inputs {
			opts := fuzz.Options{Seed: 1, MaxExecs: 1, MaxTuples: pi.ms.opts.MaxTuples}
			eng, err := fuzz.NewEngine(pi.ms.c, opts)
			if err != nil {
				return err
			}
			d := e.call("fuzz.Engine.RunInput", op, func() {
				for _, data := range pi.raw {
					eng.RunInput(data)
				}
			})
			ns += float64(d.Nanoseconds())
			engExecs += int64(len(pi.raw))
		}
		engSteps = recSteps
		samples["engine"] = append(samples["engine"], ns)
	}
	for _, cfg := range vmConfigs {
		L[cfg.name] = median(samples[cfg.name])
	}
	engNs := median(samples["engine"])
	L["fuzz.runinput_ns_per_step"] = engNs / float64(engSteps)
	L["fuzz.runinput_ns_per_exec"] = engNs / float64(engExecs)
	L["fuzz.overhead_ratio"] = L["fuzz.runinput_ns_per_step"] / L["vm.switch.ns_per_step"]
	L["coverage.record_ns_per_step"] = L["vm.switch.ns_per_step"] - L["vm.switch.norec_ns_per_step"]
	L["vm.threaded_speedup"] = L["vm.switch.ns_per_step"] / L["vm.threaded.ns_per_step"]
	L["vm.opt_speedup"] = L["vm.threaded.ns_per_step"] / L["vm.threaded_opt.ns_per_step"]
	return nil
}

// probeCheckpoint seeds one engine per model with the workload's suite and
// times the state a campaign persists and reports: checkpoint write and
// size, the coverage report, and suite minimisation.
func (e *env) probeCheckpoint(op int, suites []*modelSuite, L map[string]float64) error {
	dir, err := os.MkdirTemp(e.dir, "ckpt-")
	if err != nil {
		return err
	}
	var writeMs, bytes, reportUs, minMs []float64
	for i, ms := range suites {
		opts := fuzz.Options{Seed: subSeed(e.seed, 17, int64(i)), MaxTuples: ms.opts.MaxTuples,
			SeedInputs: ms.cases, MaxExecs: int64(len(ms.cases) + 6)}
		eng, err := fuzz.NewEngine(ms.c, opts)
		if err != nil {
			return err
		}
		e.call("fuzz.Engine.Run", op, func() { eng.Run() })
		path := filepath.Join(dir, ms.name+".ckpt")
		d := e.call("fuzz.WriteCheckpoint", op, func() { err = fuzz.WriteCheckpoint(path, eng.Snapshot()) })
		if err != nil {
			return err
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		writeMs = append(writeMs, float64(d.Nanoseconds())/1e6)
		bytes = append(bytes, float64(st.Size()))

		const reports = 20
		d = e.call("coverage.Recorder.Report", op, func() {
			for k := 0; k < reports; k++ {
				eng.Recorder().Report()
			}
		})
		reportUs = append(reportUs, float64(d.Nanoseconds())/1e3/reports)

		cases := make([]testcase.Case, len(ms.cases))
		for k, c := range ms.cases {
			cases[k] = testcase.Case{Data: c}
		}
		d = e.call("fuzz.Minimize", op, func() { fuzz.Minimize(ms.c, cases) })
		minMs = append(minMs, float64(d.Nanoseconds())/1e6)
	}
	L["fuzz.checkpoint_write_ms"] = median(writeMs)
	L["fuzz.checkpoint_bytes"] = mean(bytes)
	L["coverage.report_us"] = mean(reportUs)
	L["fuzz.minimize_ms"] = mean(minMs)
	return nil
}

// journalRecord mirrors the shape of the daemon's journal events so the
// WAL probe appends records of the sizes the daemon writes.
type journalRecord struct {
	Type   string           `json:"type"`
	Job    int              `json:"job,omitempty"`
	Time   time.Time        `json:"time"`
	Spec   *campaign.Spec   `json:"spec,omitempty"`
	Shard  int              `json:"shard,omitempty"`
	State  string           `json:"state,omitempty"`
	Report *coverage.Report `json:"report,omitempty"`
}

// probeWAL times fsync'd appends of journal-sized records and the replay
// of the resulting log on reopen.
func (e *env) probeWAL(op int, L map[string]float64) error {
	dir, err := os.MkdirTemp(e.dir, "wal-")
	if err != nil {
		return err
	}
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	rep := coverage.Report{ModelName: "CPUTask", DecisionCovered: 52, DecisionTotal: 54, CondCovered: 56,
		CondTotal: 56, MCDCCovered: 27, MCDCTotal: 28, UncoveredDecisions: []string{"Switch1", "Chart/guard 3"}}
	var appendUs []float64
	for i := 0; i < walRecords; i++ {
		job := i/6 + 1
		rec := journalRecord{Job: job, Time: time.Unix(1_700_000_000+int64(i), 0).UTC()}
		switch i % 6 {
		case 0:
			rec.Type = "submitted"
			rec.Spec = &campaign.Spec{Model: "CPUTask", Shards: 2, MaxExecs: daemonShardExecs, MaxTuples: daemonTuples,
				Seed: int64(i), CheckpointEvery: daemonCkptEvery, Checkpoint: filepath.Join(dir, "job", "ckpt")}
		case 1:
			rec.Type = "started"
		case 5:
			rec.Type, rec.State, rec.Report = "finished", campaign.StateDone, &rep
		default:
			rec.Type, rec.Shard = "checkpointed", i%2
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		d := e.call("wal.Log.Append", op, func() { err = l.Append(b) })
		if err != nil {
			return err
		}
		appendUs = append(appendUs, float64(d.Nanoseconds())/1e3)
	}
	if err := l.Close(); err != nil {
		return err
	}
	n := 0
	d := e.call("wal.Log.Replay", op, func() {
		l, err = wal.Open(dir, wal.Options{})
		if err == nil {
			err = l.Replay(func([]byte) error { n++; return nil })
		}
	})
	if err != nil {
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	if n != walRecords {
		return fmt.Errorf("wal replayed %d records, %d appended", n, walRecords)
	}
	L["wal.append_us"] = median(appendUs)
	L["wal.replay_ms"] = float64(d.Nanoseconds()) / 1e6
	return nil
}

// probeCampaign runs one short 2-shard daemon job per model with the
// workload's input-length cap, for workloads that do not drive the daemon.
func (e *env) probeCampaign(o *outcome, suites []*modelSuite, L map[string]float64) {
	po := newOutcome()
	var srv *campaign.Server
	e.operation(o, "bench.probe.campaign", func(op int) error {
		dir, err := os.MkdirTemp(e.dir, "journal-")
		if err != nil {
			return err
		}
		srv, err = e.newServer(op, dir)
		return err
	})
	if srv == nil {
		return
	}
	spec := func(j int) campaign.Spec {
		return campaign.Spec{Model: suites[j].name, Shards: 2, MaxExecs: probeJobExecs,
			MaxTuples: suites[j].opts.MaxTuples, Seed: subSeed(e.seed, 19, int64(j)), CheckpointEvery: daemonCkptEvery}
	}
	e.runJobs(po, srv.Handler(), spec, len(suites), nil)
	e.operation(o, "bench.probe.drain", func(op int) error { return e.drain(op, srv) })
	o.attempted += po.attempted
	o.failed += po.failed
	o.failures = append(o.failures, po.failures...)
	for k, v := range po.layer {
		L[k] = v
	}
}

// probeMutate splits the mutation pipeline into its layers on the
// workload's suites: generation, strict verification of the pool, the
// batched and the sequential grind, and the equivalence prover.
func (e *env) probeMutate(op int, suites []*modelSuite, L map[string]float64) error {
	var gen, verify, grind, grindSeq, full time.Duration
	var steps int64
	var survivors, equivalent, pools int
	for _, ms := range suites {
		gen += e.call("mutate.Generate", op, func() { e.generate(op, ms) })
		var err error
		verify += e.call("analysis.VerifyStrict", op, func() {
			for _, m := range ms.pool {
				if err == nil {
					err = analysis.VerifyStrict(m.Prog, m.Plan)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("%s: mutant fails strict verification: %w", ms.name, err)
		}
		var batched, seq, proved *mutate.Report
		grind += e.call("mutate.Run.NoProve", op, func() {
			batched = mutate.Run(ms.c, ms.pool, ms.cases, mutate.RunConfig{NoProve: true})
		})
		grindSeq += e.call("mutate.Run.NoProve.NoBatch", op, func() {
			seq = mutate.Run(ms.c, ms.pool, ms.cases, mutate.RunConfig{NoProve: true, NoBatch: true})
		})
		full += e.call("mutate.Run", op, func() {
			proved = mutate.Run(ms.c, ms.pool, ms.cases, mutate.RunConfig{})
		})
		if batched.Summary.Killed != seq.Summary.Killed || batched.Summary.Survived != seq.Summary.Survived {
			return fmt.Errorf("%s: batched grind killed %d survived %d, sequential %d %d", ms.name,
				batched.Summary.Killed, batched.Summary.Survived, seq.Summary.Killed, seq.Summary.Survived)
		}
		steps += batched.Steps
		survivors += batched.Summary.Survived
		equivalent += proved.Summary.Equivalent
		pools++
	}
	prove := (full - grind).Seconds()
	L["mutate.generate_s"] = gen.Seconds()
	L["analysis.verify_ms"] = float64(verify.Nanoseconds()) / 1e6 / float64(pools)
	L["mutate.grind_s"] = grind.Seconds()
	L["mutate.grind_seq_s"] = grindSeq.Seconds()
	L["mutate.batch_speedup"] = grindSeq.Seconds() / grind.Seconds()
	L["mutate.grind_steps_per_s"] = float64(steps) / grind.Seconds()
	L["opt.prove_s"] = prove
	L["opt.prove_ms_per_survivor"] = 1e3 * prove / float64(max(survivors, 1))
	L["mutate.equivalent"] = float64(equivalent)
	return nil
}
