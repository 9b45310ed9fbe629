package incremental

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/record"
)

// six records: {0,1} and {2,3} are near-duplicates, 4 and 5 are loners.
func sixRecords() []Record {
	texts := []string{
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"chez olive bistro french sunset blvd",
		"chez olive bistro french sunset",
		"harbor seafood grill market st",
		"casa pepper mexican mission dr",
	}
	out := make([]Record, len(texts))
	for i, s := range texts {
		out[i] = Record{Fields: map[string]string{"text": s}}
	}
	return out
}

func snapJSON(t *testing.T, e *Engine) string {
	t.Helper()
	cp := e.Snapshot()
	cp.Seq = 0 // journal position, not engine state
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestEngineMachineFallback(t *testing.T) {
	e := New(Config{Seed: 1})
	ids, err := e.Add(sixRecords()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("ids = %v", ids)
	}
	if e.Len() != 6 || e.ResolvedUpTo() != 0 || e.Round() != 0 {
		t.Fatalf("state = %d/%d/%d", e.Len(), e.ResolvedUpTo(), e.Round())
	}
	if e.PendingPairs() == 0 {
		t.Fatal("no pending pairs for near-duplicate records")
	}
	st, err := e.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3}, {4}, {5}}
	if got := e.Clusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
	if st.Round != 1 || e.ResolvedUpTo() != 6 || e.PendingPairs() != 0 {
		t.Errorf("post-resolve state: %+v, upTo %d, pending %d", st, e.ResolvedUpTo(), e.PendingPairs())
	}
	if st.QuestionsAsked == 0 {
		t.Errorf("machine fallback answered no questions: %+v", st)
	}

	// A second wave: one more listing of the first restaurant merges
	// into the existing cluster; the cluster's internal pair is not
	// re-asked (closure edge primed).
	if _, err := e.Add(Record{Fields: map[string]string{"text": "golden dragon palace chinese broadway blvd"}}); err != nil {
		t.Fatal(err)
	}
	st2, err := e.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want2 := [][]int{{0, 1, 6}, {2, 3}, {4}, {5}}
	if got := e.Clusters(); !reflect.DeepEqual(got, want2) {
		t.Fatalf("wave-2 clusters = %v, want %v", got, want2)
	}
	if st2.ClosureEdges == 0 || st2.InferredPositive == 0 {
		t.Errorf("wave 2 inferred nothing: %+v", st2)
	}
	if e.Round() != 2 {
		t.Errorf("round = %d", e.Round())
	}
}

func TestResolveEmptyEngine(t *testing.T) {
	e := New(Config{})
	st, err := e.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Clusters != 0 || len(e.Clusters()) != 0 {
		t.Errorf("empty resolve: %+v, clusters %v", st, e.Clusters())
	}
}

func TestAddAnswerValidation(t *testing.T) {
	e := New(Config{})
	if _, err := e.Add(sixRecords()...); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"negative lo":   func() error { return e.AddAnswer(-1, 2, 0.5, "") },
		"non-canonical": func() error { return e.AddAnswer(3, 2, 0.5, "") },
		"self pair":     func() error { return e.AddAnswer(2, 2, 0.5, "") },
		"beyond n":      func() error { return e.AddAnswer(0, 6, 0.5, "") },
		"nan":           func() error { return e.AddAnswer(0, 1, math.NaN(), "") },
		"inf":           func() error { return e.AddAnswer(0, 1, math.Inf(1), "") },
		"above one":     func() error { return e.AddAnswer(0, 1, 1.5, "") },
		"below zero":    func() error { return e.AddAnswer(0, 1, -0.5, "") },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := e.AddAnswer(0, 1, 0.9, "client"); err != nil {
		t.Fatal(err)
	}
	// Keep-first: a second answer for the same pair is ignored.
	if err := e.AddAnswer(0, 1, 0.1, ""); err != nil {
		t.Fatal(err)
	}
	if fc, ok := e.Answer(0, 1); !ok || fc != 0.9 {
		t.Errorf("Answer(0,1) = %v,%v, want 0.9", fc, ok)
	}
	if _, ok := e.Answer(2, 3); ok {
		t.Error("unknown pair reported known")
	}
	if e.AnswerCount() != 1 {
		t.Errorf("AnswerCount = %d", e.AnswerCount())
	}
	if src := e.answerSource(record.MakePair(0, 1)); src != "client" {
		t.Errorf("source = %q", src)
	}
}

func TestResolveCancelled(t *testing.T) {
	e := New(Config{Seed: 1})
	if _, err := e.Add(sixRecords()...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pendingBefore := e.PendingPairs()
	if _, err := e.Resolve(ctx); err == nil {
		t.Fatal("cancelled resolve succeeded")
	}
	if e.Round() != 0 || e.ResolvedUpTo() != 0 || e.PendingPairs() != pendingBefore {
		t.Errorf("cancelled resolve mutated state: round %d upTo %d pending %d",
			e.Round(), e.ResolvedUpTo(), e.PendingPairs())
	}
	// The engine is still usable: a healthy context completes the pass.
	if _, err := e.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Round() != 1 {
		t.Errorf("round = %d after recovery from cancellation", e.Round())
	}
}

// TestResolveCancelledMidBatch cancels a resolve while its first crowd
// batch is in flight: the cancellation must reach the source, so the
// pass returns context.Canceled long before the batch would finish,
// with no answer cached and the engine state untouched.
func TestResolveCancelledMidBatch(t *testing.T) {
	const perAnswer = 50 * time.Millisecond
	src := crowd.AsyncSource{
		Fn: func(record.Pair) float64 {
			time.Sleep(perAnswer)
			return 1
		},
		Concurrency: 1,
		Setting:     crowd.ThreeWorker(1),
	}
	e, err := Open(Config{Seed: 1, Source: src}, journal.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Twenty near-identical records: the first pivot's batch asks its 19
	// neighbours, nearly a second of answers.
	recs := make([]Record, 20)
	for i := range recs {
		recs[i] = Record{Fields: map[string]string{"text": "golden dragon palace chinese broadway w" + strconv.Itoa(i)}}
	}
	if _, err := e.Add(recs...); err != nil {
		t.Fatal(err)
	}
	pendingBefore := e.PendingPairs()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(75*time.Millisecond, cancel)
	start := time.Now()
	_, err = e.Resolve(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Resolve err = %v, want context.Canceled", err)
	}
	if full := time.Duration(len(recs)-1) * perAnswer; elapsed > full/2 {
		t.Errorf("cancelled resolve returned after %v; the first batch alone takes %v", elapsed, full)
	}
	if e.Round() != 0 || e.ResolvedUpTo() != 0 || e.PendingPairs() != pendingBefore || e.AnswerCount() != 0 {
		t.Errorf("cancelled resolve mutated state: round %d upTo %d pending %d/%d answers %d",
			e.Round(), e.ResolvedUpTo(), e.PendingPairs(), pendingBefore, e.AnswerCount())
	}
}

func TestJournalRoundTrip(t *testing.T) {
	fs := journal.NewMemFS()
	cfg := Config{Seed: 3}
	e, err := Open(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Add(sixRecords()...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAnswer(4, 5, 0.0, "client"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := snapJSON(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := snapJSON(t, e2); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The recovered engine keeps working: add one more duplicate and
	// resolve again.
	if _, err := e2.Add(Record{Fields: map[string]string{"text": "harbor seafood grill market st s"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e2.Clusters(); !reflect.DeepEqual(got, [][]int{{0, 1}, {2, 3}, {4, 6}, {5}}) {
		t.Fatalf("post-recovery clusters = %v", got)
	}
}

// TestCheckpointRecovery: automatic checkpoints compact the journal and
// recovery from checkpoint + tail events lands in the identical state.
func TestCheckpointRecovery(t *testing.T) {
	fs := journal.NewMemFS()
	cfg := Config{Seed: 5, CheckpointEvery: 4}
	e, err := Open(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Restaurant(2)
	for _, r := range ds.Records[:40] {
		if _, err := e.Add(Record{Fields: r.Fields, Entity: strconv.Itoa(r.Entity)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := snapJSON(t, e)
	e.Close()

	names, _ := fs.List()
	hasSnap := false
	for _, n := range names {
		if len(n) > 5 && n[:5] == "snap-" {
			hasSnap = true
		}
	}
	if !hasSnap {
		t.Fatalf("CheckpointEvery=4 wrote no snapshot; files: %v", names)
	}

	e2, err := Open(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := snapJSON(t, e2); got != want {
		t.Fatalf("checkpoint recovery differs:\n got %s\nwant %s", got, want)
	}
}

// TestAutoCheckpointFailureKeepsMutationsAcked: an automatic-checkpoint
// failure must not fail the mutation that triggered it — the record's
// append and apply already succeeded, and callers (the shard group's
// gid bookkeeping) must see it acked. The failure lands in
// CheckpointErr and a counter instead, and the next eligible mutation
// retries the checkpoint.
func TestAutoCheckpointFailureKeepsMutationsAcked(t *testing.T) {
	fs := journal.NewMemFS()
	rec := obs.New()
	e, err := Open(Config{Seed: 1, CheckpointEvery: 2, Obs: rec}, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	six := sixRecords()
	if _, err := e.Add(six[0]); err != nil {
		t.Fatal(err)
	}
	// The next write (record 1's WAL append) succeeds; the one after it
	// (the checkpoint's tmp file) fails.
	fs.FailAfterWrites(1)
	id, wait, err := e.AddBuffered(six[1])
	if err != nil {
		t.Fatalf("AddBuffered surfaced the auto-checkpoint failure as an append error: %v", err)
	}
	if err := <-wait; err != nil {
		t.Fatalf("durable record not acked: %v", err)
	}
	if id != 1 {
		t.Fatalf("id = %d, want 1", id)
	}
	if e.CheckpointErr() == nil {
		t.Error("auto-checkpoint failure vanished: CheckpointErr is nil")
	}
	if got := rec.Counter(MetricCheckpointErrors); got != 1 {
		t.Errorf("checkpoint_errors = %d, want 1", got)
	}
	// The engine keeps accepting mutations; the retried checkpoint
	// succeeds and clears the sticky error.
	if _, err := e.Add(six[2]); err != nil {
		t.Fatalf("add after auto-checkpoint failure: %v", err)
	}
	if err := e.CheckpointErr(); err != nil {
		t.Errorf("sticky error survived a successful checkpoint: %v", err)
	}
	if got := rec.Counter(MetricCheckpoints); got < 1 {
		t.Errorf("checkpoints = %d, want ≥ 1 (the retry)", got)
	}
}

func TestRebuildRejectsCorruptHistory(t *testing.T) {
	if _, err := Rebuild(Config{}, nil, []journal.Event{
		{Seq: 1, Type: journal.EventRecordAdded, Record: &journal.RecordData{ID: 5}},
	}); err == nil {
		t.Error("out-of-order record id accepted")
	}
	if _, err := Rebuild(Config{}, nil, []journal.Event{
		{Seq: 1, Type: "bogus"},
	}); err == nil {
		t.Error("unknown event type accepted")
	}
	if _, err := Rebuild(Config{}, nil, []journal.Event{
		{Seq: 1, Type: journal.EventResolve, Resolve: &journal.ResolveData{Round: 1, ResolvedUpTo: 3}},
	}); err == nil {
		t.Error("resolve covering absent records accepted")
	}
	if _, err := Rebuild(Config{}, &journal.Checkpoint{Seq: 1, ResolvedUpTo: 9}, nil); err == nil {
		t.Error("checkpoint with resolvedUpTo beyond records accepted")
	}
	if _, err := Rebuild(Config{}, &journal.Checkpoint{
		Seq:     1,
		Records: []journal.RecordData{{ID: 0, Fields: map[string]string{"a": "b"}}},
		Stats:   journal.IndexStats{Records: 99},
	}, nil); err == nil {
		t.Error("checkpoint with wrong index stats accepted")
	}
}
