package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/core"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
	"cftcg/internal/mutate"
)

// Workload parameters. They are the CLI defaults where the CLI has one
// (cftcg fuzz: MaxTuples 64; cftcg mutate: 100-mutant pool, 5000-exec
// suite), so the workloads run the system as its users do.
const (
	fuzzLongExecs    = 20000 // per model campaign
	fuzzLongTuples   = 64
	daemonShardExecs = 12000 // per shard, 2 shards per job
	daemonTuples     = 4
	daemonCkptEvery  = "20ms"
	mutantPool       = 100
	poolSeed         = 1
	mutationSuite    = 5000
	setupRepeats     = 25
)

// env is one run of one workload.
type env struct {
	seed   int64
	tr     *tracer // nil in untraced phases
	dir    string  // scratch directory for journals and checkpoints
	units  int     // rounds, jobs or passes the main phase runs
	models []benchmodels.Entry
}

// modelSuite is one model's compiled form and the suite the workload
// produced for it; the traced run replays it through every layer.
type modelSuite struct {
	name  string
	model *model.Model
	c     *codegen.Compiled
	cases [][]byte
	opts  fuzz.Options // engine options the workload fuzzed this model with
	pool  []*mutate.Mutant
	seen  map[string]bool
}

// addCases merges one campaign's suite into the model's suite: the tails
// and the traced run score and replay the union over the whole run.
func (ms *modelSuite) addCases(cases [][]byte) {
	if ms.seen == nil {
		ms.seen = make(map[string]bool)
	}
	for _, c := range cases {
		if !ms.seen[string(c)] {
			ms.seen[string(c)] = true
			ms.cases = append(ms.cases, c)
		}
	}
}

// outcome accumulates what one main phase measured.
type outcome struct {
	attempted, failed int
	failures          []string
	setup             []time.Duration

	execs, steps int64   // fuzz-driver invocations and model iterations
	fuzzWall     float64 // clock seconds of the campaigns that made them
	dec, cond    []float64
	mcdc         []float64
	latency      []float64 // per operation: model campaign, job or pool
	mutants      int
	mutWall      float64 // clock seconds of the mutation pipelines
	scores       []float64
	perModel     map[string]*[2]float64 // execs, clock seconds
	plateauExecs []float64              // per campaign, from Result.Timeline
	plateauSecs  []float64
	mcdcGap      int // MCDC pairs reported but not reproduced by the suite
	mcdcGapOps   int // campaigns or jobs with such pairs
	suites       []*modelSuite
	suiteWall    float64 // clock seconds of the campaigns that made suites
	units        int
	wall         float64 // main phase after set-up, benchmark clock
	mainFrom     float64 // tracer time at which the main phase started
	layer        map[string]float64

	// The same intervals in raw wall seconds, kept beside the clock's.
	rawFuzz, rawMut, rawWall float64
	rawLatency               []float64
}

func newOutcome() *outcome {
	return &outcome{perModel: make(map[string]*[2]float64), layer: make(map[string]float64)}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// more reports whether the main loop starts another unit (round, job or
// pass) of the run's fixed amount of work.
func (e *env) more(done int) bool { return done < e.units }

// operation runs one workload operation under a root span. A panic, an
// error or a failed check counts the operation as failed.
func (e *env) operation(o *outcome, name string, fn func(op int) error) (wall float64) {
	op := e.tr.begin(name, 0, 0)
	t0 := now()
	o.attempted++
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn(op)
	}()
	wall = since(t0).Seconds()
	e.tr.end(op)
	if err != nil {
		o.fail("%s: %v", name, err)
	}
	return wall
}

// call times fn on the benchmark clock under a child span of op.
func (e *env) call(name string, op int, fn func()) time.Duration {
	sp := e.tr.begin(name, op, e.tr.op(op))
	t0 := now()
	fn()
	d := since(t0)
	e.tr.end(sp)
	return d
}

// beginMain starts the timed main phase after set-up, from a collected heap.
func (e *env) beginMain(o *outcome) stamp {
	runtime.GC()
	o.mainFrom = e.tr.now()
	return now()
}

// endMain closes the main phase that started at start.
func (o *outcome) endMain(start stamp) {
	o.wall = since(start).Seconds()
	o.rawWall = wallSince(start)
}

// measureSetup runs fn setupRepeats times after a GC each and records the
// process CPU time of every repetition: a set-up takes milliseconds, below
// the steal counter's resolution, and CPU time leaves steal out at
// nanosecond resolution. The caller keeps what the last repetition built.
func (e *env) measureSetup(o *outcome, fn func(op int) error) {
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := cpuTime()
		e.operation(o, "bench.setup", fn)
		o.setup = append(o.setup, cpuTime()-t0)
	}
}

// subSeed derives an independent seed from the run seed and a path of
// indices (splitmix64), so every campaign, pool and job gets its own input
// stream from --seed alone.
func subSeed(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x ^= uint64(p) + 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x>>2) + 1
}

func compileAll(e *env, op int) ([]*modelSuite, error) {
	var out []*modelSuite
	for _, entry := range e.models {
		m := entry.Build()
		var c *codegen.Compiled
		var err error
		e.call("codegen.Compile", op, func() { c, err = codegen.Compile(m) })
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", entry.Name, err)
		}
		out = append(out, &modelSuite{name: entry.Name, model: m, c: c})
	}
	return out, nil
}

// campaign runs one single-engine fuzzing campaign (building the engine
// unless one is given), checks that it spent its budget exactly and takes
// its coverage from replaying the emitted suite (see replayCoverage). It
// returns the suite and the Run time on the benchmark clock and the wall.
func (e *env) campaign(o *outcome, op int, ms *modelSuite, opts fuzz.Options, eng *fuzz.Engine) (cases [][]byte, wall, raw float64, err error) {
	if eng == nil {
		e.call("fuzz.NewEngine", op, func() { eng, err = fuzz.NewEngine(ms.c, opts) })
		if err != nil {
			return nil, 0, 0, err
		}
	}
	var res *fuzz.Result
	t0 := now()
	e.call("fuzz.Engine.Run", op, func() { res = eng.Run() })
	wall, raw = since(t0).Seconds(), wallSince(t0)
	if res.Execs != opts.MaxExecs {
		return nil, wall, raw, fmt.Errorf("%s ran %d execs, budget %d", ms.name, res.Execs, opts.MaxExecs)
	}
	cases = make([][]byte, len(res.Suite.Cases))
	for i, tc := range res.Suite.Cases {
		cases[i] = tc.Data
	}
	o.execs += res.Execs
	o.steps += res.Steps
	o.fuzzWall += wall
	o.rawFuzz += raw
	pm := o.perModel[ms.name]
	if pm == nil {
		pm = new([2]float64)
		o.perModel[ms.name] = pm
	}
	pm[0] += float64(res.Execs)
	pm[1] += wall
	if n := len(res.Timeline); n > 0 {
		last := res.Timeline[n-1]
		for _, p := range res.Timeline {
			if p.Branches == last.Branches {
				o.plateauExecs = append(o.plateauExecs, float64(p.Execs))
				o.plateauSecs = append(o.plateauSecs, p.Elapsed.Seconds())
				break
			}
		}
	}
	return cases, wall, raw, e.replayCoverage(o, op, ms, cases, res.Report)
}

// replayCoverage replays a suite on the switch reference VM with a fresh
// recorder (core.System.Replay, what `cftcg cov` runs) and records the
// replay's decision, condition and MCDC coverage: the suite is what a user
// keeps, so the coverage metrics are the suite's. It checks the replay
// against the coverage the engine or the daemon reported for the same run:
// decision and condition coverage and the MCDC pair total must be equal.
// MCDC pairs must be equal too, but the engine also counts pairs of inputs
// it never emits (it emits an input for new decision or condition coverage
// only), so the replay finds fewer on most campaigns. That shortfall is a
// known defect of the engine, left standing: it is counted, printed on
// every run and reported as fuzz.suite_mcdc_gap, and only a replay finding
// more pairs than reported fails the run.
func (e *env) replayCoverage(o *outcome, op int, ms *modelSuite, cases [][]byte, r coverage.Report) error {
	var rep coverage.Report
	e.call("core.System.Replay", op, func() {
		rep, _ = (&core.System{Model: ms.model, Compiled: ms.c}).Replay(cases)
	})
	if rep.DecisionCovered != r.DecisionCovered || rep.DecisionTotal != r.DecisionTotal ||
		rep.CondCovered != r.CondCovered || rep.CondTotal != r.CondTotal ||
		rep.MCDCTotal != r.MCDCTotal || rep.MCDCCovered > r.MCDCCovered {
		return fmt.Errorf("%s suite replay decision %d/%d condition %d/%d mcdc %d/%d, reported %d/%d %d/%d %d/%d",
			ms.name, rep.DecisionCovered, rep.DecisionTotal, rep.CondCovered, rep.CondTotal, rep.MCDCCovered, rep.MCDCTotal,
			r.DecisionCovered, r.DecisionTotal, r.CondCovered, r.CondTotal, r.MCDCCovered, r.MCDCTotal)
	}
	if gap := r.MCDCCovered - rep.MCDCCovered; gap > 0 {
		o.mcdcGap += gap
		o.mcdcGapOps++
	}
	o.dec = append(o.dec, rep.Decision())
	o.cond = append(o.cond, rep.Condition())
	o.mcdc = append(o.mcdc, rep.MCDC())
	return nil
}

// score runs the mutation-testing pipeline of `cftcg mutate` on one model:
// a 100-mutant pool, then mutate.Run with cfg. It checks that every mutant
// is accounted for once and the score is in (0, 1].
func (e *env) score(o *outcome, op int, ms *modelSuite, cases [][]byte, genStart stamp, cfg mutate.RunConfig) error {
	var rep *mutate.Report
	e.call("mutate.Run", op, func() { rep = mutate.Run(ms.c, ms.pool, cases, cfg) })
	o.mutWall += since(genStart).Seconds()
	o.rawMut += wallSince(genStart)
	s := rep.Summary
	if len(ms.pool) == 0 || s.Total != len(ms.pool) || s.Killed+s.Survived+s.Duplicates+s.Equivalent != s.Total {
		return fmt.Errorf("%s: pool %d, summary total %d = killed %d + survived %d + duplicates %d + equivalent %d",
			ms.name, len(ms.pool), s.Total, s.Killed, s.Survived, s.Duplicates, s.Equivalent)
	}
	if !(s.Score > 0 && s.Score <= 1) {
		return fmt.Errorf("%s: mutation score %v outside (0, 1]", ms.name, s.Score)
	}
	o.mutants += s.Total
	o.scores = append(o.scores, s.Score)
	return nil
}

// generate samples the model's mutant pool with cftcg mutate's default
// seed, so every run scores its suites against the same 100 mutants per
// model: --seed varies the suites under test, not the yardstick.
func (e *env) generate(op int, ms *modelSuite) {
	e.call("mutate.Generate", op, func() {
		ms.pool = mutate.Generate(ms.c, ms.model, mutate.Config{Limit: mutantPool, Seed: poolSeed})
	})
}

// scoreSuites is the tail of the fuzz-long and daemon-short workloads, so
// that they report every end-to-end metric: each model's suite from the main
// phase is scored by the mutation workload's pipeline with the equivalence
// prover off. The prover would treble the tail's time and its cost is the
// mutation workload's to measure; without it no mutant is reclassified as
// equivalent, so these scores are lower bounds, comparable run to run.
func (e *env) scoreSuites(o *outcome) {
	runtime.GC() // start the tail from the same heap state on every run
	for _, ms := range o.suites {
		e.operation(o, "bench.pool", func(op int) error {
			t0 := now()
			e.generate(op, ms)
			return e.score(o, op, ms, ms.cases, t0, mutate.RunConfig{NoProve: true})
		})
	}
}

// fuzzLong is the paper's loop as `cftcg fuzz` runs it: all 8 models one
// after another, each one single-engine campaign with default options and a
// fixed exec budget; the run's rounds repeat that with fresh seeds.
func fuzzLong(e *env) *outcome {
	o := newOutcome()
	opts := func(round, i int) fuzz.Options {
		return fuzz.Options{Seed: subSeed(e.seed, int64(round), int64(i)), MaxExecs: fuzzLongExecs, MaxTuples: fuzzLongTuples}
	}
	var models []*modelSuite
	var engines []*fuzz.Engine
	e.measureSetup(o, func(op int) error {
		var err error
		if models, err = compileAll(e, op); err != nil {
			return err
		}
		engines = engines[:0]
		for i, ms := range models {
			var eng *fuzz.Engine
			e.call("fuzz.NewEngine", op, func() { eng, err = fuzz.NewEngine(ms.c, opts(0, i)) })
			if err != nil {
				return err
			}
			engines = append(engines, eng)
		}
		return nil
	})
	if o.failed > 0 {
		return o
	}
	start := e.beginMain(o)
	for round := 0; e.more(round); round++ {
		for i, ms := range models {
			var eng *fuzz.Engine
			if round == 0 {
				eng, engines[i] = engines[i], nil
			}
			ms.opts = opts(round, i)
			e.operation(o, "bench.campaign", func(op int) error {
				cases, wall, raw, err := e.campaign(o, op, ms, ms.opts, eng)
				o.latency = append(o.latency, wall)
				o.rawLatency = append(o.rawLatency, raw)
				if err == nil {
					ms.addCases(cases)
					o.suiteWall += wall
				}
				return err
			})
		}
		o.units++
	}
	o.suites = models
	e.scoreSuites(o)
	o.endMain(start)
	return o
}

// mutation runs `cftcg mutate` with its defaults on each of the 8 models:
// a 100-mutant pool, a 5000-exec suite and mutate.Run with the prover on.
// The run's passes over the models repeat that with fresh suite seeds.
func mutation(e *env) *outcome {
	o := newOutcome()
	var models []*modelSuite
	e.measureSetup(o, func(op int) error {
		var err error
		models, err = compileAll(e, op)
		return err
	})
	if o.failed > 0 {
		return o
	}
	start := e.beginMain(o)
	for pass := 0; e.more(pass); pass++ {
		for i, ms := range models {
			seed := subSeed(e.seed, int64(pass), int64(i))
			ms.opts = fuzz.Options{Seed: seed, MaxExecs: mutationSuite}
			opStart := now()
			wall := e.operation(o, "bench.pool", func(op int) error {
				t0 := now()
				e.generate(op, ms)
				cases, wall, _, err := e.campaign(o, op, ms, ms.opts, nil)
				if err != nil {
					return err
				}
				if pass == 0 {
					ms.cases = cases
					o.suiteWall += wall
				}
				return e.score(o, op, ms, cases, t0, mutate.RunConfig{})
			})
			// The pool, not its suite campaign, is this workload's operation.
			o.latency = append(o.latency, wall)
			o.rawLatency = append(o.rawLatency, wallSince(opStart))
		}
		o.units++
	}
	o.suites = models
	o.endMain(start)
	return o
}

// daemonClient drives an in-process campaign.Server through its HTTP
// handler, the way cftcgd's clients do.
type daemonClient struct {
	e *env
	h http.Handler
}

func (d *daemonClient) do(op int, method, path string, body, out any) (time.Duration, error) {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	// Wall time: a handler call takes microseconds, far below the steal
	// counter's resolution, and polling must not read /proc/stat.
	sp := d.e.tr.begin("campaign.Handler."+method, op, d.e.tr.op(op))
	t0 := time.Now()
	d.h.ServeHTTP(w, req)
	d2 := time.Since(t0)
	d.e.tr.end(sp)
	if w.Code/100 != 2 {
		return d2, fmt.Errorf("%s %s: HTTP %d: %s", method, path, w.Code, strings.TrimSpace(w.Body.String()))
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			return d2, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return d2, nil
}

// job submits one campaign and polls its status until it ends (closed
// loop: the caller submits the next job only after this one returns).
func (d *daemonClient) job(op int, spec campaign.Spec, statusNs *[]float64) (campaign.JobStatus, error) {
	var st campaign.JobStatus
	if _, err := d.do(op, http.MethodPost, "/api/campaigns", spec, &st); err != nil {
		return st, err
	}
	path := fmt.Sprintf("/api/campaigns/%d", st.ID)
	for st.State == campaign.StateQueued || st.State == campaign.StateRunning {
		time.Sleep(2 * time.Millisecond)
		dt, err := d.do(op, http.MethodGet, path, nil, &st)
		if err != nil {
			return st, err
		}
		*statusNs = append(*statusNs, float64(dt.Nanoseconds()))
	}
	return st, nil
}

// runJobs submits n jobs and checks each ends done and not degraded. It
// records campaign-layer figures into o.layer and, when suites is given,
// exports each job's corpus, takes the job's coverage from replaying it
// (see replayCoverage) and merges it into its model's suite. In a traced
// run each job gets two spans from its own timestamps: queued (submitted to
// started) and running (started to finished), the server's share of it.
func (e *env) runJobs(o *outcome, h http.Handler, specs func(j int) campaign.Spec, n int, suites map[string]*modelSuite) {
	d := &daemonClient{e: e, h: h}
	var statusNs, queue, run, pollinated, admitted []float64
	for j := 0; j < n; j++ {
		spec := specs(j)
		e.operation(o, "bench.job", func(op int) error {
			t0 := now()
			st, err := d.job(op, spec, &statusNs)
			clock, wall := since(t0).Seconds(), wallSince(t0)
			if err != nil {
				return err
			}
			if st.State != campaign.StateDone || st.Degraded || st.Stopped || st.Error != "" ||
				st.Report == nil || st.Snapshot == nil || st.Started == nil || st.Finished == nil {
				return fmt.Errorf("job %d (%s) ended %s degraded=%v stopped=%v error=%q",
					st.ID, spec.Model, st.State, st.Degraded, st.Stopped, st.Error)
			}
			// A job's latency is submitted → finished by its own timestamps,
			// converted to the benchmark clock at the rate the client's wait
			// for it ran.
			raw := st.Finished.Sub(st.Submitted).Seconds()
			latency := raw * clock / wall
			e.tr.record("campaign.job.queued", op, st.Submitted, *st.Started)
			e.tr.record("campaign.job.running", op, *st.Started, *st.Finished)
			sn := st.Snapshot
			runS := st.Finished.Sub(*st.Started).Seconds()
			o.latency = append(o.latency, latency)
			o.rawLatency = append(o.rawLatency, raw)
			queue = append(queue, st.Started.Sub(st.Submitted).Seconds())
			run = append(run, runS)
			o.execs += sn.Execs
			o.steps += sn.Steps
			o.fuzzWall += latency
			o.rawFuzz += raw
			pm := o.perModel[spec.Model]
			if pm == nil {
				pm = new([2]float64)
				o.perModel[spec.Model] = pm
			}
			pm[0] += float64(sn.Execs)
			pm[1] += latency
			pollinated = append(pollinated, float64(sn.Pollinated))
			if tries := sn.Pollinated * int64(len(sn.Shards)-1); tries > 0 {
				admitted = append(admitted, float64(sn.Received)/float64(tries))
			}
			if ms := suites[spec.Model]; ms != nil {
				var corpus struct {
					Cases [][]byte `json:"cases"`
				}
				if _, err := d.do(op, http.MethodGet, fmt.Sprintf("/api/campaigns/%d/corpus", st.ID), nil, &corpus); err != nil {
					return err
				}
				if err := e.replayCoverage(o, op, ms, corpus.Cases, *st.Report); err != nil {
					return fmt.Errorf("job %d: %w", st.ID, err)
				}
				ms.addCases(corpus.Cases)
				o.suiteWall += latency
			}
			return nil
		})
		o.units++
	}
	o.layer["campaign.queue_wait_ms"] = 1e3 * mean(queue)
	o.layer["campaign.run_s"] = mean(run)
	o.layer["campaign.status_us"] = median(statusNs) / 1e3
	o.layer["campaign.pollinated"] = mean(pollinated)
	o.layer["campaign.injected_admitted_ratio"] = mean(admitted)
}

// resolve is the daemon's model resolver over the built-in benchmarks.
func resolve(name string) (*codegen.Compiled, error) {
	entry, err := benchmodels.Get(name)
	if err != nil {
		return nil, err
	}
	return codegen.Compile(entry.Build())
}

func (e *env) newServer(op int, dir string) (*campaign.Server, error) {
	var srv *campaign.Server
	var err error
	e.call("campaign.NewServerWithConfig", op, func() {
		srv, err = campaign.NewServerWithConfig(resolve, campaign.ServerConfig{Runners: 1, Journal: dir})
	})
	return srv, err
}

func (e *env) drain(op int, srv *campaign.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var err error
	e.call("campaign.Server.Drain", op, func() { err = srv.Drain(ctx) })
	return err
}

// daemonShort is the daemon as operators run it: an in-process server with
// a WAL journal and one runner, and one closed-loop client submitting short
// 2-shard campaigns over the models in a seeded order.
func daemonShort(e *env) *outcome {
	o := newOutcome()
	var servers []*campaign.Server
	var journal string
	e.measureSetup(o, func(op int) error {
		// The tail scores, and the traced run replays, each model's corpus
		// exported from every job of the run.
		models, err := compileAll(e, op)
		if err != nil {
			return err
		}
		for _, ms := range models {
			ms.opts = fuzz.Options{MaxTuples: daemonTuples, MaxExecs: daemonShardExecs}
		}
		o.suites = models
		dir, err := os.MkdirTemp(e.dir, "journal-")
		if err != nil {
			return err
		}
		journal = dir
		srv, err := e.newServer(op, dir)
		if err == nil {
			servers = append(servers, srv)
		}
		return err
	})
	if o.failed > 0 {
		return o
	}
	srv := servers[len(servers)-1]
	for _, idle := range servers[:len(servers)-1] {
		e.operation(o, "bench.setup.drain", func(op int) error { return e.drain(op, idle) })
	}
	order := rand.New(rand.NewSource(e.seed)).Perm(len(e.models))
	spec := func(j int) campaign.Spec {
		return campaign.Spec{
			Model:           e.models[order[j%len(order)]].Name,
			Shards:          2,
			MaxExecs:        daemonShardExecs,
			MaxTuples:       daemonTuples,
			Seed:            subSeed(e.seed, int64(j)),
			CheckpointEvery: daemonCkptEvery,
		}
	}
	suites := make(map[string]*modelSuite)
	for _, ms := range o.suites {
		suites[ms.name] = ms
	}
	start := e.beginMain(o)
	e.runJobs(o, srv.Handler(), spec, e.units, suites)

	// Every finished job must survive a restart: drain, reopen the journal
	// in a second server and find every job listed as done.
	e.operation(o, "bench.restart", func(op int) error {
		if err := e.drain(op, srv); err != nil {
			return err
		}
		srv2, err := e.newServer(op, journal)
		if err != nil {
			return err
		}
		var jobs []campaign.JobStatus
		_, err = (&daemonClient{e: e, h: srv2.Handler()}).do(op, http.MethodGet, "/api/campaigns", nil, &jobs)
		if derr := e.drain(op, srv2); err == nil {
			err = derr
		}
		if err != nil {
			return err
		}
		if len(jobs) != o.units {
			return fmt.Errorf("reopened journal lists %d jobs, %d were submitted", len(jobs), o.units)
		}
		for _, st := range jobs {
			if st.State != campaign.StateDone {
				return fmt.Errorf("reopened journal lists job %d as %s", st.ID, st.State)
			}
		}
		return nil
	})
	e.scoreSuites(o)
	o.endMain(start)
	return o
}
