package campaign

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"cftcg/internal/codegen"
	"cftcg/internal/fuzz"
)

// waitState polls a job until it reaches the wanted state.
func waitState(t *testing.T, srv *Server, id int, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %d disappeared", id)
		}
		st := j.status()
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %d failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s (want %s)", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalDurableLifecycle: a journaled server survives restart — the
// finished campaign reappears with its report, the auto-assigned checkpoint
// lives under the journal directory, and the job ID sequence continues.
func TestJournalDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Journal: dir}
	srv, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(job.Spec.Checkpoint, dir) {
		t.Fatalf("journaled job should get a server-side checkpoint, got %q", job.Spec.Checkpoint)
	}
	done := waitState(t, srv, job.ID, StateDone)
	if done.Report == nil {
		t.Fatal("finished job has no report")
	}
	drain(t, srv)

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := srv2.Job(job.ID)
	if !ok {
		t.Fatalf("job %d lost across restart", job.ID)
	}
	st := restored.status()
	if st.State != StateDone || st.Report == nil || st.Report.DecisionCovered != done.Report.DecisionCovered {
		t.Fatalf("restored job corrupted: %+v", st)
	}
	next, err := srv2.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= job.ID {
		t.Fatalf("ID sequence reset across restart: %d after %d", next.ID, job.ID)
	}
	waitState(t, srv2, next.ID, StateDone)
	drain(t, srv2)
}

// TestJournalCompactionReplays: with tiny WAL segments a handful of jobs
// push the journal past compactSegments, so the server compacts it into a
// snapshot record and deletes the older segments. A server reopened on the
// directory must fold that snapshot back into the same job table.
func TestJournalCompactionReplays(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{Journal: dir, JournalSegmentBytes: 512}
	srv, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []JobStatus
	for i := 0; i < 8; i++ {
		spec, state := Spec{Model: "Magic", MaxExecs: 50, Seed: int64(i + 1)}, StateDone
		if i == 3 {
			spec, state = Spec{Model: "NoSuch", MaxExecs: 50}, StateFailed
		}
		job, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, waitState(t, srv, job.ID, state))
	}
	drain(t, srv)
	srv.mu.Lock()
	wantNext := srv.nextID
	srv.mu.Unlock()

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	var written int
	if _, err := fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "%d.wal", &written); err != nil {
		t.Fatal(err)
	}
	if len(segs) >= written {
		t.Fatalf("journal never compacted: %d segments written, %d kept", written, len(segs))
	}
	t.Logf("journal compacted: %d segments written, %d kept", written, len(segs))

	srv2, err := NewServerWithConfig(testResolver(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, srv2)
	jobs := srv2.Jobs()
	if len(jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		got, w := j.status(), want[i]
		if got.ID != w.ID || got.State != w.State || got.Error != w.Error {
			t.Errorf("job %d replayed as {id %d, %s, %q}, want {id %d, %s, %q}",
				i, got.ID, got.State, got.Error, w.ID, w.State, w.Error)
		}
		gr, _ := json.Marshal(got.Report)
		wr, _ := json.Marshal(w.Report)
		if string(gr) != string(wr) {
			t.Errorf("job %d report changed across compaction:\n got %s\nwant %s", w.ID, gr, wr)
		}
	}
	srv2.mu.Lock()
	gotNext := srv2.nextID
	srv2.mu.Unlock()
	if gotNext != wantNext {
		t.Errorf("next job ID %d after replay, want %d", gotNext, wantNext)
	}
}

// TestJournalRequeuesInterrupted: a journal recording submitted+started with
// no finish — the shape a SIGKILL leaves behind — makes the restarted server
// requeue the job and run it to completion.
func TestJournalRequeuesInterrupted(t *testing.T) {
	dir := t.TempDir()
	jnl, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "Magic", MaxExecs: 300}
	jnl.record(journalEvent{Type: evSubmitted, Job: 1, Spec: &spec})
	jnl.record(journalEvent{Type: evStarted, Job: 1})
	jnl.close()

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, srv, 1, StateDone)
	if !st.Requeued {
		t.Error("recovered job should be marked requeued")
	}
	if st.Report == nil {
		t.Error("recovered job has no report")
	}
	drain(t, srv)
}

// TestJournalTornFinalRecord: garbage after the last intact record — a crash
// mid-append — must not block recovery, and the records before the tear
// must survive.
func TestJournalTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	jnl, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "Magic", MaxExecs: 200}
	jnl.record(journalEvent{Type: evSubmitted, Job: 1, Spec: &spec})
	jnl.close()

	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00}) // torn frame: too short for a header
	f.Close()

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatalf("torn journal tail must not block recovery: %v", err)
	}
	waitState(t, srv, 1, StateDone)
	drain(t, srv)
}

// TestJournalDoubleResumeIdempotent: the crash→requeue→crash shape writes
// duplicate transitions; the replay fold must yield one job, and a second
// recovery cycle must not mint a duplicate either.
func TestJournalDoubleResumeIdempotent(t *testing.T) {
	dir := t.TempDir()
	jnl, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Model: "Magic", MaxExecs: 200}
	jnl.record(journalEvent{Type: evSubmitted, Job: 1, Spec: &spec})
	jnl.record(journalEvent{Type: evStarted, Job: 1})
	jnl.record(journalEvent{Type: evStarted, Job: 1}) // requeued start after first crash
	jnl.close()

	jnl2, err := openJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs, nextID, err := jnl2.replay()
	jnl2.close()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].State != StateRunning || nextID != 2 {
		t.Fatalf("fold of duplicated transitions: %d jobs, state %v, nextID %d",
			len(jobs), jobs, nextID)
	}

	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, 1, StateDone)
	drain(t, srv)
	srv2, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv2.Jobs()); got != 1 {
		t.Fatalf("double recovery minted %d jobs, want 1", got)
	}
	drain(t, srv2)
}

// TestSubmitShedsWhenOverloaded: with the single runner wedged and the queue
// at MaxQueue, further submissions shed with ErrOverloaded, and the health
// endpoint reports degraded until the queue drains.
func TestSubmitShedsWhenOverloaded(t *testing.T) {
	magic := magicModel(t)
	release := make(chan struct{})
	blockingResolver := func(name string) (*codegen.Compiled, error) {
		<-release
		return magic, nil
	}
	srv, err := NewServerWithConfig(blockingResolver, ServerConfig{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueDepth() != 0 { // runner picked it up (and is now wedged)
		if time.Now().After(deadline) {
			t.Fatal("runner never dequeued the first job")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(Spec{Model: "Magic", MaxExecs: 100}); err != ErrOverloaded {
		t.Fatalf("overloaded submit: want ErrOverloaded, got %v", err)
	}
	if h := srv.Health(); h.Status != "degraded" || h.QueueDepth < h.QueueMax {
		t.Fatalf("saturated queue should degrade health: %+v", h)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: want 503, got %d", resp.StatusCode)
	}

	close(release)
	waitState(t, srv, first.ID, StateDone)
	waitState(t, srv, second.ID, StateDone)
	if h := srv.Health(); h.Status != "ok" {
		t.Fatalf("health should recover once the queue drains: %+v", h)
	}
	drain(t, srv)
}

// TestDrainMidCheckpoint: SIGTERM while shards are checkpointing every
// millisecond — the drain must complete and every checkpoint file must stay
// loadable (the atomic-rename protocol holds under shutdown races).
func TestDrainMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServerWithConfig(testResolver(t), ServerConfig{Journal: dir})
	if err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(Spec{
		Model: "Magic", Shards: 2, Budget: "1m", CheckpointEvery: "1ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until checkpoints are actually being written.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := waitState(t, srv, job.ID, StateRunning)
		if st.Snapshot != nil && !st.Snapshot.OldestCheckpoint.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shards never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, srv)
	st := job.status()
	if st.State != StateDone || !st.Stopped {
		t.Fatalf("drained job should finish stopped: %+v", st)
	}
	for shard := 0; shard < 2; shard++ {
		path := fuzz.ShardCheckpointPath(job.Spec.Checkpoint, shard)
		if _, err := fuzz.LoadCheckpoint(path); err != nil {
			t.Errorf("shard %d checkpoint unreadable after drain race: %v", shard, err)
		}
	}
}

// TestReadyzDrain: readiness flips to 503 when the server drains; liveness
// (healthz) stays 200 — the process is healthy, just finishing.
func TestReadyzDrain(t *testing.T) {
	srv := NewServer(testResolver(t), 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	drain(t, srv)
	if code := status("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: want 503, got %d", code)
	}
	if code := status("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain: want 200, got %d", code)
	}
}
