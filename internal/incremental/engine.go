package incremental

import (
	"fmt"
	"math"

	"acd/internal/blocking"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/record"
	"acd/internal/unionfind"
)

// Record is one input record for Engine.Add: raw fields plus an optional
// ground-truth entity label (used only by evaluation, never by the
// algorithms).
type Record struct {
	// Fields are the record's named attribute values.
	Fields map[string]string
	// Entity is the optional ground-truth entity label ("" = unknown).
	Entity string
	// GID is the record's global id when the engine is one shard of a
	// sharded group (the router assigns dense global ids across shards).
	// Standalone engines leave it 0; it is journaled but never consulted
	// by the engine itself.
	GID int
}

// Config configures an Engine.
type Config struct {
	// Tau is the pruning threshold for the incremental blocking index.
	// Unless TauSet is true, the zero value means pruning.DefaultTau.
	Tau float64
	// TauSet marks Tau as explicit (mirrors pruning.Options).
	TauSet bool
	// Epsilon is PC-Pivot's wasted-pair budget; 0 means
	// core.DefaultEpsilon.
	Epsilon float64
	// RefineX is PC-Refine's budget divisor; 0 means refine.DefaultX.
	RefineX int
	// SkipRefinement stops each resolve after cluster generation.
	SkipRefinement bool
	// Seed derives the per-round pivot permutation (round r uses
	// Seed + r), so a run is reproducible given the same input order.
	Seed int64
	// Source answers crowd questions. Nil falls back to the machine
	// similarity scores themselves (provenance "machine") — useful for
	// crowd-free operation and tests.
	Source crowd.Source
	// Obs, when set, receives engine and crowd metrics. Nil records
	// nothing.
	Obs *obs.Recorder
	// CheckpointEvery writes a compacted snapshot after this many
	// journal events; 0 disables automatic checkpoints. Ignored without
	// a journal.
	CheckpointEvery int
	// Commit is the journal group-commit policy. The zero value keeps
	// one fsync per event; a nonzero Window batches concurrent appends
	// into a single fsync per group and pipelines acknowledgments.
	Commit journal.GroupPolicy
	// RotateBytes rotates the journal's live WAL segment once it grows
	// past this size; 0 disables rotation.
	RotateBytes int64
}

// EffectiveTau resolves the configured pruning threshold: Tau when set
// (explicitly via TauSet or by being nonzero), pruning.DefaultTau
// otherwise. The shard router uses it to build its global probe index
// with exactly the threshold its shard engines use.
func (c Config) EffectiveTau() float64 {
	if c.TauSet || c.Tau != 0 {
		return c.Tau
	}
	return pruning.DefaultTau
}

func (c Config) effectiveEpsilon() float64 {
	if c.Epsilon != 0 {
		return c.Epsilon
	}
	return core.DefaultEpsilon
}

// Engine is a live deduplication engine: Add records at any time,
// Resolve to fold pending records into the clustering, and read the
// current clustering with Clusters. Engines are not safe for concurrent
// use; callers (acdserve) serialize access.
type Engine struct {
	cfg    Config
	tau    float64
	store  *journal.Store
	commit *journal.Committer // non-nil exactly when store is

	records []journal.RecordData
	index   *blocking.IncrementalIndex
	pending []blocking.ScoredPair // candidate pairs not yet covered by a resolve
	uf      *unionfind.Growable

	round        int
	resolvedUpTo int // records with id below this are clustered

	answers     map[record.Pair]float64
	answerOrder []record.Pair // first-crowdsourced order, for deterministic priming
	answerSrc   map[record.Pair]string

	sinceCheckpoint int
	cpErr           error // latest automatic-checkpoint failure; cleared by a successful checkpoint
}

// New returns an engine with no journal: state lives only in memory.
func New(cfg Config) *Engine {
	tau := cfg.EffectiveTau()
	return &Engine{
		cfg:       cfg,
		tau:       tau,
		index:     blocking.NewIncrementalIndex(tau),
		uf:        &unionfind.Growable{},
		answers:   make(map[record.Pair]float64),
		answerSrc: make(map[record.Pair]string),
	}
}

// Open recovers an engine from the journal in fs (empty directories
// start fresh) and attaches the journal so every subsequent state
// transition is logged. Close the engine to release the journal.
func Open(cfg Config, fs journal.FS) (*Engine, error) {
	store, recovered, err := journal.OpenOptions(fs, journal.Options{
		RotateBytes: cfg.RotateBytes,
		Obs:         cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	e, err := Rebuild(cfg, recovered.Checkpoint, recovered.Events)
	if err != nil {
		store.Close()
		return nil, err
	}
	e.store = store
	e.commit = journal.NewCommitter(store, cfg.Commit)
	return e, nil
}

// Rebuild constructs an engine in the exact state described by a
// checkpoint (nil for none) plus the events after it — the pure replay
// function recovery and the crash-point tests share. The result has no
// journal attached.
func Rebuild(cfg Config, cp *journal.Checkpoint, events []journal.Event) (*Engine, error) {
	e := New(cfg)
	if cp != nil {
		if err := e.applyCheckpoint(cp); err != nil {
			return nil, err
		}
	}
	for _, ev := range events {
		if err := e.applyEvent(ev); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Close flushes outstanding commit groups and detaches and closes the
// journal, if any. The engine remains readable but further mutations
// fail.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	return e.commit.Close() // flushes, stops the flusher, closes the store
}

// Len returns the number of records the engine holds.
func (e *Engine) Len() int { return len(e.records) }

// Round returns the number of completed resolve passes.
func (e *Engine) Round() int { return e.round }

// ResolvedUpTo returns the count of records covered by the latest
// resolve pass; records with higher ids are still singleton-pending.
func (e *Engine) ResolvedUpTo() int { return e.resolvedUpTo }

// PendingPairs returns the number of candidate pairs awaiting the next
// resolve pass.
func (e *Engine) PendingPairs() int { return len(e.pending) }

// PendingScored returns a copy of the scored candidate pairs awaiting
// the next resolve pass. The shard router gathers these (translated to
// global ids) when assembling a global ResolveState.
func (e *Engine) PendingScored() []blocking.ScoredPair {
	return append([]blocking.ScoredPair(nil), e.pending...)
}

// AnsweredPairs returns a copy of every pair with a cached answer, in
// first-cached order. Values are read back through Answer.
func (e *Engine) AnsweredPairs() []record.Pair {
	return append([]record.Pair(nil), e.answerOrder...)
}

// Record returns the stored form of record id.
func (e *Engine) Record(id int) journal.RecordData { return e.records[id] }

// Add appends records to the engine, assigns their dense ids, journals
// them, and feeds them through the blocking index. All records are
// buffered into the journal's open commit group first and the group is
// expedited once before blocking, so a multi-record Add shares one
// fsync across the batch (and a single-record Add never waits out the
// commit window). It returns the assigned ids; on return every
// reported id is durable, and on error ids holds the durably committed
// prefix.
func (e *Engine) Add(recs ...Record) ([]int, error) {
	type pend struct {
		id   int
		wait <-chan error
	}
	pends := make([]pend, 0, len(recs))
	var appendErr error
	for _, r := range recs {
		id, wait, err := e.AddBuffered(r)
		if err != nil {
			appendErr = err
			break
		}
		pends = append(pends, pend{id: id, wait: wait})
	}
	if e.commit != nil {
		e.commit.Expedite()
	}
	ids := make([]int, 0, len(pends))
	for _, p := range pends {
		if err := <-p.wait; err != nil {
			return ids, err
		}
		ids = append(ids, p.id)
	}
	return ids, appendErr
}

// AddBuffered appends one record — id assignment, WAL write, in-memory
// apply — without blocking on durability. The returned channel
// resolves once the commit group holding the record's journal event
// has synced; only then may the record be acknowledged. An immediate
// error means nothing was applied. Without a journal (or with
// batching disabled) the channel is already resolved on return.
//
// The record is applied to in-memory state before it is durable (local
// id assignment is order-dependent, so apply cannot wait for the
// fsync); if the commit later fails, the journal is poisoned and every
// subsequent mutation fails — restart to recover a consistent state.
func (e *Engine) AddBuffered(r Record) (int, <-chan error, error) {
	data := journal.RecordData{ID: len(e.records), GID: r.GID, Fields: r.Fields, Entity: r.Entity}
	wait, err := e.appendAsync(journal.Event{Type: journal.EventRecordAdded, Record: &data})
	if err != nil {
		return 0, nil, err
	}
	e.applyRecord(data)
	e.cfg.Obs.Count(MetricRecordsAdded, 1)
	e.autoCheckpoint()
	return data.ID, wait, nil
}

// ValidateAnswer checks whether (lo,hi,fc) is an answer AddAnswer would
// accept, without changing any state. Callers with a batch of answers
// validate the whole batch first so a rejection leaves nothing applied.
func (e *Engine) ValidateAnswer(lo, hi int, fc float64) error {
	if lo < 0 || lo >= hi || hi >= len(e.records) {
		return fmt.Errorf("incremental: answer pair (%d,%d) outside the record universe [0,%d)", lo, hi, len(e.records))
	}
	if math.IsNaN(fc) || math.IsInf(fc, 0) || fc < 0 || fc > 1 {
		return fmt.Errorf("incremental: answer fc %v outside [0,1]", fc)
	}
	return nil
}

// AddAnswer feeds an externally-obtained crowd answer into the engine
// cache, so future resolves get it for free. The first answer for a
// pair wins; re-adding a known pair is a silent no-op (idempotent
// replay). Source labels provenance; "" means crowd.DefaultSource.
func (e *Engine) AddAnswer(lo, hi int, fc float64, source string) error {
	if err := e.ValidateAnswer(lo, hi, fc); err != nil {
		return err
	}
	p := record.MakePair(record.ID(lo), record.ID(hi))
	if _, known := e.answers[p]; known {
		return nil
	}
	return e.cacheAnswer(p, fc, source, true)
}

// AddAnswerBuffered is AddAnswer without blocking on durability: the
// answer is journaled and cached immediately, and the returned channel
// resolves once its commit group syncs — only then may the answer be
// acknowledged. Known pairs resolve instantly (idempotent no-op). An
// immediate error means nothing was applied.
func (e *Engine) AddAnswerBuffered(lo, hi int, fc float64, source string) (<-chan error, error) {
	if err := e.ValidateAnswer(lo, hi, fc); err != nil {
		return nil, err
	}
	p := record.MakePair(record.ID(lo), record.ID(hi))
	if _, known := e.answers[p]; known {
		ch := make(chan error, 1)
		ch <- nil
		return ch, nil
	}
	if source == crowd.DefaultSource {
		source = ""
	}
	wait, err := e.appendAsync(journal.Event{Type: journal.EventAnswer, Answer: &journal.AnswerData{
		Lo: int(p.Lo), Hi: int(p.Hi), FC: fc, Source: source,
	}})
	if err != nil {
		return nil, err
	}
	e.applyAnswer(p, fc, source)
	e.autoCheckpoint()
	return wait, nil
}

// Answer returns the cached crowd answer for a pair, if any.
func (e *Engine) Answer(lo, hi int) (fc float64, ok bool) {
	if lo < 0 || lo >= hi {
		return 0, false
	}
	fc, ok = e.answers[record.MakePair(record.ID(lo), record.ID(hi))]
	return fc, ok
}

// AnswerCount returns the number of cached crowd answers.
func (e *Engine) AnswerCount() int { return len(e.answers) }

// Clusters returns the current clustering over all records in canonical
// form (members ascending, clusters by first member). Records added
// since the last resolve appear as singletons.
func (e *Engine) Clusters() [][]int {
	e.uf.Grow(len(e.records))
	return e.uf.Sets(len(e.records))
}

// Snapshot captures the engine's full durable state as a checkpoint.
// Two engines are in identical state exactly when their snapshots are
// byte-identical after zeroing Seq (which tracks journal position, not
// engine state).
func (e *Engine) Snapshot() *journal.Checkpoint {
	var seq int64
	if e.store != nil {
		seq = e.store.NextSeq() - 1
	}
	answers := make([]journal.AnswerData, 0, len(e.answerOrder))
	for _, p := range e.answerOrder {
		answers = append(answers, journal.AnswerData{
			Lo: int(p.Lo), Hi: int(p.Hi),
			FC:     e.answers[p],
			Source: e.answerSrc[p],
		})
	}
	return &journal.Checkpoint{
		Seq:          seq,
		Round:        e.round,
		ResolvedUpTo: e.resolvedUpTo,
		Records:      append([]journal.RecordData(nil), e.records...),
		Answers:      answers,
		Clusters:     e.Clusters(),
		Stats:        journal.IndexStats{Records: e.index.Len(), Postings: e.index.Postings()},
	}
}

// Checkpoint writes a compacted snapshot to the journal now, letting it
// drop fully-covered WAL segments. No-op without a journal.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	if err := e.commit.WriteCheckpoint(e.Snapshot()); err != nil {
		return err
	}
	e.sinceCheckpoint = 0
	e.cpErr = nil
	e.cfg.Obs.Count(MetricCheckpoints, 1)
	return nil
}

// CheckpointErr returns the latest automatic-checkpoint failure, or nil.
// Auto-checkpoints piggyback on mutations whose own append and apply
// already succeeded, so their failure must not fail (or un-ack) the
// mutation — the WAL still holds every event a missed snapshot would
// have covered, and the checkpoint is retried on the next eligible
// mutation. The error is held here (and counted as
// MetricCheckpointErrors) instead of vanishing; a later successful
// checkpoint clears it.
func (e *Engine) CheckpointErr() error { return e.cpErr }

// Flush blocks until every buffered journal event is durable — the
// barrier the shard layer takes before a resolve or checkpoint. No-op
// without a journal or with batching disabled.
func (e *Engine) Flush() error {
	if e.store == nil {
		return nil
	}
	return e.commit.Flush()
}

// append journals one event and waits for durability; a no-op without
// a journal.
func (e *Engine) append(ev journal.Event) error {
	if e.store == nil {
		return nil
	}
	if _, err := e.commit.Append(ev); err != nil {
		return err
	}
	e.sinceCheckpoint++
	e.cfg.Obs.Count(MetricJournalEvents, 1)
	return nil
}

// appendAsync journals one event without blocking on durability,
// returning a channel resolved when its commit group syncs. Without a
// journal the returned channel is already resolved.
func (e *Engine) appendAsync(ev journal.Event) (<-chan error, error) {
	if e.store == nil {
		ch := make(chan error, 1)
		ch <- nil
		return ch, nil
	}
	_, wait, err := e.commit.AppendAsync(ev)
	if err != nil {
		return nil, err
	}
	e.sinceCheckpoint++
	e.cfg.Obs.Count(MetricJournalEvents, 1)
	return wait, nil
}

// autoCheckpoint writes the periodic compacted snapshot once enough
// events have accumulated. Failures are demoted to CheckpointErr (plus
// a metric): the caller's mutation is already journaled and applied, so
// surfacing the failure as the mutation's error would make callers
// treat a durable, applied event as failed (the shard group would skip
// its gid registration and wedge the shard). sinceCheckpoint is left
// untouched on failure, so the next eligible mutation retries.
func (e *Engine) autoCheckpoint() {
	if e.store == nil || e.cfg.CheckpointEvery <= 0 || e.sinceCheckpoint < e.cfg.CheckpointEvery {
		return
	}
	if err := e.Checkpoint(); err != nil {
		e.cpErr = err
		e.cfg.Obs.Count(MetricCheckpointErrors, 1)
	}
}

// applyRecord is the journal-free half of Add, shared with replay.
func (e *Engine) applyRecord(data journal.RecordData) {
	e.records = append(e.records, data)
	text := record.New(record.ID(data.ID), data.Fields).Text()
	e.pending = append(e.pending, e.index.Add(text)...)
	e.uf.Grow(len(e.records))
}

// cacheAnswer stores a fresh answer, journaling it first when asked to
// (WAL discipline: an answer is durable before anything depends on it).
func (e *Engine) cacheAnswer(p record.Pair, fc float64, source string, journalIt bool) error {
	if source == crowd.DefaultSource {
		source = ""
	}
	if journalIt {
		err := e.append(journal.Event{Type: journal.EventAnswer, Answer: &journal.AnswerData{
			Lo: int(p.Lo), Hi: int(p.Hi), FC: fc, Source: source,
		}})
		if err != nil {
			return err
		}
	}
	e.applyAnswer(p, fc, source)
	if journalIt {
		e.autoCheckpoint()
	}
	return nil
}

// applyAnswer is the journal-free half of answer caching. source must
// already be normalized ("" for the default crowd source).
func (e *Engine) applyAnswer(p record.Pair, fc float64, source string) {
	e.answers[p] = fc
	e.answerOrder = append(e.answerOrder, p)
	if source != "" {
		e.answerSrc[p] = source
	}
	e.cfg.Obs.Count(MetricAnswersCached, 1)
}

// answerSource returns a pair's provenance label (crowd.DefaultSource
// when it was never overridden).
func (e *Engine) answerSource(p record.Pair) string {
	if s, ok := e.answerSrc[p]; ok {
		return s
	}
	return crowd.DefaultSource
}

// newResolveSession builds the crowd session a resolve pass uses over
// the configured source (or the machine fallback over the scoped
// scores). Every fresh batch flows through sink before the algorithms
// consume it: the answer is journaled and cached the moment it is
// produced, so a crash after the answer but before the resolve effect
// recovers with the answer cached — and the next resolve primes it for
// free, preserving questions_answered == oracle_invocations across
// restarts. The returned function reports the first sink failure.
func newResolveSession(cfg Config, scores map[record.Pair]float64, sink AnswerSink) (*crowd.Session, func() error) {
	var src crowd.Source = machineSource{scores: scores}
	label := SourceMachine
	if cfg.Source != nil {
		src, label = cfg.Source, ""
	}
	sess := crowd.NewSession(src)
	if cfg.Obs != nil {
		sess.SetRecorder(cfg.Obs)
	}
	var sinkErr error
	if sink != nil {
		sess.Observe(func(pairs []record.Pair, fcs []float64) {
			for i, p := range pairs {
				if err := sink(p, fcs[i], label); err != nil && sinkErr == nil {
					sinkErr = err
				}
			}
		})
	}
	return sess, func() error { return sinkErr }
}

// SourceMachine is the provenance label for answers synthesized from
// machine similarity scores (Config.Source == nil).
const SourceMachine = "machine"

// machineSource is the crowd-free fallback: it answers a pair with its
// machine similarity score from the scoped candidate set (0 for
// non-candidates, matching the paper's pruning convention).
type machineSource struct {
	scores map[record.Pair]float64
}

// Score implements crowd.Source.
func (m machineSource) Score(p record.Pair) float64 { return m.scores[p] }

// Config implements crowd.Source.
func (m machineSource) Config() crowd.Config { return crowd.ThreeWorker(0) }

// Evaluate scores the engine's current clustering against the journaled
// ground-truth entity labels (records with empty labels are each their
// own entity). It returns precision, recall and F1 over record pairs.
func (e *Engine) Evaluate() (precision, recall, f1 float64) {
	var tp, fp, fn float64
	n := len(e.records)
	e.uf.Grow(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := e.uf.Same(i, j)
			ei, ej := e.records[i].Entity, e.records[j].Entity
			truth := ei != "" && ei == ej
			switch {
			case same && truth:
				tp++
			case same && !truth:
				fp++
			case !same && truth:
				fn++
			}
		}
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}
