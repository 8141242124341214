package service

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"karyon/internal/harness"
)

// blockingBackend parks until the job's context dies — the shape of a job
// a crash or drain interrupts mid-execution.
type blockingBackend struct{}

func (blockingBackend) Run(ctx context.Context, s harness.Scenario, opts harness.Options, emit harness.ReplicaEmit) (*harness.Report, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// panicBackend fails the way no backend should.
type panicBackend struct{}

func (panicBackend) Run(ctx context.Context, s harness.Scenario, opts harness.Options, emit harness.ReplicaEmit) (*harness.Report, error) {
	panic("injected scenario panic")
}

func jobID(t *testing.T, spec JobSpec) string {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	id, err := norm.CacheKey(testBuild)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// lineSuffix returns b without its first n complete lines — the bytes a
// resumed stream must deliver. Computed independently of the server's own
// skipLines so the two cannot agree by sharing a bug.
func lineSuffix(b []byte, n int) []byte {
	out := b
	for ; n > 0; n-- {
		i := bytes.IndexByte(out, '\n')
		if i < 0 {
			return nil
		}
		out = out[i+1:]
	}
	return out
}

// noTempDebris fails the test if any atomic-write temp file survived under
// dir: a crash (or any code path) must leave only absent-or-complete files.
func noTempDebris(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("temp debris left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// waitJournalEmpty polls until no .journal files remain under dir.
func waitJournalEmpty(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, de := range des {
			if strings.HasSuffix(de.Name(), ".journal") {
				live++
			}
		}
		if live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal still holds %d entries", live)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitState(t *testing.T, s *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %.12s stuck in %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey('a')
	spec := JobSpec{Scenario: "highway", Seed: 1}
	if err := jn.Record(JournalRecord{Key: key, State: StateQueued, Spec: spec, At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Record(JournalRecord{Key: key, State: StateRunning, Spec: spec, At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Record(JournalRecord{Key: "not a key", State: StateQueued}); err == nil {
		t.Fatal("journal accepted an invalid key")
	}

	// A fresh Journal over the same dir (a restarted daemon) replays the
	// full transition history, last record authoritative.
	jn2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, skipped, err := jn2.Replay()
	if err != nil || skipped != 0 {
		t.Fatalf("Replay: entries err=%v skipped=%d", err, skipped)
	}
	if len(entries) != 1 || entries[0].Key != key {
		t.Fatalf("replayed %d entries, want 1 for %s", len(entries), key)
	}
	e := entries[0]
	if len(e.History) != 2 || e.Last.State != StateRunning || e.Last.Spec.Scenario != "highway" {
		t.Fatalf("bad replayed entry: %+v", e)
	}

	if err := jn2.Remove(key); err != nil {
		t.Fatal(err)
	}
	if err := jn2.Remove(key); err != nil {
		t.Fatalf("Remove is not idempotent: %v", err)
	}
	entries, _, err = jn2.Replay()
	if err != nil || len(entries) != 0 {
		t.Fatalf("after Remove: %d entries, err=%v", len(entries), err)
	}
	noTempDebris(t, dir)
}

func TestJournalReplaySkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	key := testKey('b')
	// A torn/corrupt file under a valid key, a file under an invalid key,
	// and one good file: replay must keep only the good one.
	if err := os.WriteFile(filepath.Join(dir, key+".journal"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz..journal"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testKey('c')
	if err := jn.Record(JournalRecord{Key: good, State: StateQueued, At: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jn2, _ := OpenJournal(dir)
	entries, skipped, err := jn2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != good {
		t.Fatalf("replayed %d entries, want only %s", len(entries), good)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
}

// TestRecoveryReEnqueuesInterruptedJob is the crash-recovery contract in
// miniature: a journal left by a daemon that died mid-job makes the next
// daemon re-run that job to the same byte-identical archive an
// uninterrupted run produces.
func TestRecoveryReEnqueuesInterruptedJob(t *testing.T) {
	spec := tinyHighway()
	id := jobID(t, spec)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	// Reference bytes from an uninterrupted daemon over fresh dirs.
	ref := newTestServer(t, Config{})
	rst, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, rst.ID)

	// Forge the journal a crashed daemon leaves behind: the job was
	// accepted, started running, and the process died.
	dir, jdir := t.TempDir(), t.TempDir()
	jn, err := OpenJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []State{StateQueued, StateRunning} {
		if err := jn.Record(JournalRecord{Key: id, State: st, Spec: norm, At: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}

	s := newTestServer(t, Config{CacheDir: dir, JournalDir: jdir})
	if got := s.Stats().Recovered; got != 1 {
		t.Fatalf("Recovered = %d, want 1", got)
	}
	st, err := s.Job(id)
	if err != nil {
		t.Fatalf("recovered job unknown: %v", err)
	}
	if !st.Recovered {
		t.Fatal("recovered job not marked Recovered")
	}
	got := waitTerminal(t, s, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered run diverged from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	stream, ok, err := s.cache.Get(id)
	if err != nil || !ok {
		t.Fatalf("recovered job not archived: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(stream, want) {
		t.Fatal("recovered archive differs from uninterrupted archive")
	}
	waitJournalEmpty(t, jdir)
	noTempDebris(t, dir)
	noTempDebris(t, jdir)
}

// TestRecoveryResolvesArchivedJob: a crash between cache.Put and the
// journal cleanup must not re-run the job — the archive is authoritative.
func TestRecoveryResolvesArchivedJob(t *testing.T) {
	spec := tinyHighway()
	id := jobID(t, spec)
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	dir, jdir := t.TempDir(), t.TempDir()
	stream := []byte(`{"type":"summary"}` + "\n")
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(id, stream, CacheMeta{Spec: norm, Build: testBuild, CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	jn, err := OpenJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Record(JournalRecord{Key: id, State: StateDone, Spec: norm, At: time.Now()}); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{CacheDir: dir, JournalDir: jdir})
	if got := s.Stats().Recovered; got != 0 {
		t.Fatalf("Recovered = %d, want 0 (archive already durable)", got)
	}
	waitJournalEmpty(t, jdir)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("submit after recovery missed the archive")
	}
	if misses := s.Stats().CacheMisses; misses != 0 {
		t.Fatalf("recovery re-ran an archived job: misses=%d", misses)
	}
}

// TestDrainInterruptedJobsRecover: shutdown-forced cancellations are
// interruptions, not resolutions — a restart over the same dirs re-runs
// both the drain-killed running job and the queued one, converging to the
// bytes an uninterrupted daemon produces.
func TestDrainInterruptedJobsRecover(t *testing.T) {
	specA := tinyHighway()
	specB := tinyHighway()
	specB.Seed = 8
	idA, idB := jobID(t, specA), jobID(t, specB)

	ref := newTestServer(t, Config{})
	wants := map[string][]byte{}
	for _, spec := range []JobSpec{specA, specB} {
		st, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		wants[st.ID] = waitTerminal(t, ref, st.ID)
	}

	dir, jdir := t.TempDir(), t.TempDir()
	s1 := newTestServer(t, Config{
		CacheDir: dir, JournalDir: jdir, Workers: 1,
		Backend: blockingBackend{},
	})
	if _, err := s1.Submit(specA); err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, idA, StateRunning)
	if _, err := s1.Submit(specB); err != nil {
		t.Fatal(err)
	}
	s1.Close() // forced drain: A is killed mid-run, B dies queued

	s2 := newTestServer(t, Config{CacheDir: dir, JournalDir: jdir})
	if got := s2.Stats().Recovered; got != 2 {
		t.Fatalf("Recovered = %d, want 2", got)
	}
	for _, id := range []string{idA, idB} {
		if got := waitTerminal(t, s2, id); !bytes.Equal(got, wants[id]) {
			t.Fatalf("job %.12s recovered to different bytes", id)
		}
	}
	waitJournalEmpty(t, jdir)
	noTempDebris(t, dir)
	noTempDebris(t, jdir)
}

// TestPanicContainedToJob: a panicking backend fails exactly its own job —
// stack captured in the status and the stream's error envelope — and the
// server keeps serving.
func TestPanicContainedToJob(t *testing.T) {
	s := newTestServer(t, Config{Backend: panicBackend{}})
	st, err := s.Submit(tinyHighway())
	if err != nil {
		t.Fatal(err)
	}
	stream := waitTerminal(t, s, st.ID)
	lines := parseStream(t, stream)
	last := lines[len(lines)-1]
	if last.Type != LineError || !strings.Contains(last.Error, "panicked") {
		t.Fatalf("panicked job's stream does not end in a panic error line: %+v", last)
	}
	if !strings.Contains(last.Stack, "panicBackend") {
		t.Fatalf("error envelope carries no useful stack:\n%s", last.Stack)
	}
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || !strings.Contains(got.Stack, "panicBackend") {
		t.Fatalf("status = %s stack %q, want failed with captured stack", got.State, got.Stack)
	}
	if stats := s.Stats(); stats.Panics != 1 || stats.Failed != 1 {
		t.Fatalf("stats panics=%d failed=%d, want 1/1", stats.Panics, stats.Failed)
	}
	if _, ok, _ := s.cache.Get(st.ID); ok {
		t.Fatal("panicked job was archived")
	}

	// The daemon survived: it still accepts and executes work.
	spec2 := tinyHighway()
	spec2.Seed = 9
	st2, err := s.Submit(spec2)
	if err != nil {
		t.Fatalf("server dead after contained panic: %v", err)
	}
	waitTerminal(t, s, st2.ID)
	if stats := s.Stats(); stats.Panics != 2 {
		t.Fatalf("second panic not contained: panics=%d", stats.Panics)
	}
}

// TestQueueFullDegradedMode: a saturated queue is explicit degradation —
// ErrBusy on submit and "queue-full" in the stats — not silent buffering.
func TestQueueFullDegradedMode(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueDepth: 1,
		Backend: blockingBackend{},
	})
	specA := tinyHighway()
	if _, err := s.Submit(specA); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, jobID(t, specA), StateRunning)

	specB := tinyHighway()
	specB.Seed = 8
	if _, err := s.Submit(specB); err != nil {
		t.Fatal(err)
	}
	if d := s.Stats().Degraded; !slices.Contains(d, "queue-full") {
		t.Fatalf("Degraded = %v, want queue-full listed", d)
	}
	specC := tinyHighway()
	specC.Seed = 9
	if _, err := s.Submit(specC); err != ErrBusy {
		t.Fatalf("submit over a full queue = %v, want ErrBusy", err)
	}
}

// TestCacheUnavailableDegrades: an unreadable archive degrades to
// execution — announced in the stats, never failing the submission.
func TestCacheUnavailableDegrades(t *testing.T) {
	dir := t.TempDir()
	spec := tinyHighway()
	id := jobID(t, spec)
	// Wedge the archive path: a directory where the stream file would
	// live makes both Get and Put fail.
	if err := os.MkdirAll(filepath.Join(dir, id[:2], id+".ndjson"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{CacheDir: dir})
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("unreadable cache failed the submission: %v", err)
	}
	if st.Cached {
		t.Fatal("unreadable cache reported a hit")
	}
	if d := s.Stats().Degraded; !slices.Contains(d, "cache-unavailable") {
		t.Fatalf("Degraded = %v, want cache-unavailable listed", d)
	}
	stream := waitTerminal(t, s, id)
	lines := parseStream(t, stream)
	if lines[len(lines)-1].Type != LineSummary {
		t.Fatalf("degraded-mode job did not complete: %+v", lines[len(lines)-1])
	}
	got, err := s.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("state = %s, want done despite the dead cache", got.State)
	}
	if d := s.Stats().Degraded; !slices.Contains(d, "cache-unavailable") {
		t.Fatalf("Degraded = %v after failed archive, want cache-unavailable still listed", d)
	}
}

// TestJournalUnavailableDegrades: losing journal durability is announced,
// not fatal — submissions keep working.
func TestJournalUnavailableDegrades(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	s := newTestServer(t, Config{JournalDir: jdir})
	// Replace the journal dir with a regular file so every write fails.
	if err := os.RemoveAll(jdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jdir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(tinyHighway())
	if err != nil {
		t.Fatalf("dead journal failed the submission: %v", err)
	}
	if d := s.Stats().Degraded; !slices.Contains(d, "journal-unavailable") {
		t.Fatalf("Degraded = %v, want journal-unavailable listed", d)
	}
	stream := waitTerminal(t, s, st.ID)
	if lines := parseStream(t, stream); lines[len(lines)-1].Type != LineSummary {
		t.Fatal("job did not complete under a dead journal")
	}
}

// TestStreamFromResume: for every offset, the resumed stream is exactly
// the full stream minus its first N lines — in-memory and disk-archived
// paths alike.
func TestStreamFromResume(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{CacheDir: dir})
	spec := JobSpec{Scenario: "highway", Seed: 11, Replicas: 3, Duration: "10s", Cars: 6}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	full := waitTerminal(t, s, st.ID) // 3 replica lines + 1 summary

	check := func(srv *Server, label string) {
		t.Helper()
		for from := 0; from <= 5; from++ {
			var buf bytes.Buffer
			if err := srv.StreamFrom(st.ID, from, &buf, nil); err != nil {
				t.Fatalf("%s StreamFrom(%d): %v", label, from, err)
			}
			if want := lineSuffix(full, from); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s StreamFrom(%d) = %q, want %q", label, from, buf.Bytes(), want)
			}
		}
		if err := srv.StreamFrom(st.ID, -1, io.Discard, nil); err == nil {
			t.Fatalf("%s: negative offset accepted", label)
		}
	}
	check(s, "in-memory")

	// A restarted server serves the same job from the disk archive
	// (buf == nil) through a different resume path; same bytes required.
	s2 := newTestServer(t, Config{CacheDir: dir})
	if _, err := s2.Submit(spec); err != nil {
		t.Fatal(err)
	}
	check(s2, "disk")
}

// TestStreamFromLiveTail: a resume offset works against a job that has not
// produced those lines yet — the reader waits, skips them as they land,
// and receives exactly the suffix.
func TestStreamFromLiveTail(t *testing.T) {
	s := newTestServer(t, Config{})
	spec := JobSpec{Scenario: "highway", Seed: 13, Replicas: 3, Duration: "10s", Cars: 6}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Attach with an offset immediately — almost certainly before replica
	// 1 exists — and tail to completion.
	var buf bytes.Buffer
	if err := s.StreamFrom(st.ID, 2, &buf, nil); err != nil {
		t.Fatal(err)
	}
	full := waitTerminal(t, s, st.ID)
	if want := lineSuffix(full, 2); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("live resume = %q, want %q", buf.Bytes(), want)
	}
}
