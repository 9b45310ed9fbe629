package crowd

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"acd/internal/obs"
	"acd/internal/record"
)

// tryOutcome scripts one TryScore attempt of a scriptSource.
type tryOutcome struct {
	fc  float64
	lat time.Duration
	err error
}

// scriptSource is a faultSource test double: attempt outcomes are looked
// up in a per-(pair, attempt) script, defaulting to a 1-second success
// with the pair's base answer. It counts attempts per pair.
type scriptSource struct {
	answers  map[record.Pair]float64
	script   map[record.Pair]map[int]tryOutcome
	attempts map[record.Pair][]int
}

func newScriptSource() *scriptSource {
	return &scriptSource{
		answers:  make(map[record.Pair]float64),
		script:   make(map[record.Pair]map[int]tryOutcome),
		attempts: make(map[record.Pair][]int),
	}
}

func (s *scriptSource) set(p record.Pair, attempt int, o tryOutcome) {
	if s.script[p] == nil {
		s.script[p] = make(map[int]tryOutcome)
	}
	s.script[p][attempt] = o
}

func (s *scriptSource) Score(p record.Pair) float64 { return s.answers[p] }
func (s *scriptSource) Config() Config              { return ThreeWorker(0) }

func (s *scriptSource) TryScore(p record.Pair, attempt int) (float64, time.Duration, error) {
	s.attempts[p] = append(s.attempts[p], attempt)
	if o, ok := s.script[p][attempt]; ok {
		return o.fc, o.lat, o.err
	}
	return s.answers[p], time.Second, nil
}

// reliableHarness wires a scripted source, a virtual clock and a fresh
// recorder into a ReliableSource with no jitter (so simulated elapsed
// time is exact arithmetic).
func reliableHarness(cfg ReliableConfig, src Source) (*ReliableSource, *VirtualClock, *obs.Recorder) {
	clock := NewVirtualClock(time.Time{})
	rec := obs.New()
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.JitterFrac == 0 {
		cfg.JitterFrac = -1
	}
	cfg.Clock = clock
	r := NewReliable(src, cfg)
	r.SetRecorder(rec)
	return r, clock, rec
}

func TestReliableFirstTrySuccess(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(1, 2)
	src.answers[p] = 0.8
	r, clock, rec := reliableHarness(ReliableConfig{}, src)

	if got := r.Score(p); got != 0.8 {
		t.Fatalf("Score = %v, want 0.8", got)
	}
	if e := clock.Elapsed(); e != time.Second {
		t.Errorf("elapsed %v, want 1s (the attempt latency)", e)
	}
	m := rec.Snapshot()
	if m.Counters[MetricAttempts] != 1 {
		t.Errorf("attempts = %d, want 1", m.Counters[MetricAttempts])
	}
	for _, k := range []string{MetricRetries, MetricHedges, MetricTimeouts, MetricFallbacks} {
		if m.Counters[k] != 0 {
			t.Errorf("%s = %d on a clean answer", k, m.Counters[k])
		}
	}
}

func TestReliableRetryAfterTransientError(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(3, 4)
	src.answers[p] = 0.6
	src.set(p, 0, tryOutcome{lat: 500 * time.Millisecond, err: ErrTransient})
	// Attempt index 2 is the second primary issue; the default outcome
	// (success, 1s) applies.
	r, clock, rec := reliableHarness(ReliableConfig{Retries: 2, Backoff: 200 * time.Millisecond}, src)

	if got := r.Score(p); got != 0.6 {
		t.Fatalf("Score = %v, want 0.6", got)
	}
	// 500ms failed attempt + 200ms backoff + 1s successful retry.
	if e, want := clock.Elapsed(), 1700*time.Millisecond; e != want {
		t.Errorf("elapsed %v, want %v", e, want)
	}
	m := rec.Snapshot()
	if m.Counters[MetricRetries] != 1 {
		t.Errorf("retries = %d, want 1", m.Counters[MetricRetries])
	}
	if m.Counters[MetricFallbacks] != 0 {
		t.Errorf("fallbacks = %d after a successful retry", m.Counters[MetricFallbacks])
	}
	if got := src.attempts[p]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("attempt indices = %v, want [0 2]", got)
	}
}

func TestReliableDroppedAnswerTimesOutThenRetries(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(5, 6)
	src.answers[p] = 0.4
	// The primary's answer never arrives (latency beyond the deadline);
	// so does the hedge's. The retry succeeds.
	src.set(p, 0, tryOutcome{fc: 0.4, lat: time.Hour})
	src.set(p, 1, tryOutcome{fc: 0.4, lat: time.Hour})
	r, clock, rec := reliableHarness(ReliableConfig{Timeout: 10 * time.Second, Backoff: time.Second}, src)

	if got := r.Score(p); got != 0.4 {
		t.Fatalf("Score = %v, want 0.4", got)
	}
	// Full 10s deadline + 1s backoff + 1s retry.
	if e, want := clock.Elapsed(), 12*time.Second; e != want {
		t.Errorf("elapsed %v, want %v", e, want)
	}
	m := rec.Snapshot()
	if m.Counters[MetricTimeouts] != 1 {
		t.Errorf("timeouts = %d, want 1", m.Counters[MetricTimeouts])
	}
	if m.Counters[MetricRetries] != 1 {
		t.Errorf("retries = %d, want 1", m.Counters[MetricRetries])
	}
}

func TestReliableHedgeWinsRace(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(7, 8)
	// Straggling primary (8s, past the boot hedge delay of Timeout/2 =
	// 5s); the hedge issued at 5s answers in 1s, surfacing at 6s — it
	// wins. Distinct scores prove whose answer was used.
	src.set(p, 0, tryOutcome{fc: 0.3, lat: 8 * time.Second})
	src.set(p, 1, tryOutcome{fc: 0.9, lat: time.Second})
	r, clock, rec := reliableHarness(ReliableConfig{Timeout: 10 * time.Second}, src)

	if got := r.Score(p); got != 0.9 {
		t.Fatalf("Score = %v, want the hedge's 0.9", got)
	}
	if e, want := clock.Elapsed(), 6*time.Second; e != want {
		t.Errorf("elapsed %v, want %v (hedge delay 5s + hedge latency 1s)", e, want)
	}
	m := rec.Snapshot()
	if m.Counters[MetricHedges] != 1 {
		t.Errorf("hedges = %d, want 1", m.Counters[MetricHedges])
	}
	if m.Counters[MetricAttempts] != 2 {
		t.Errorf("attempts = %d, want 2", m.Counters[MetricAttempts])
	}
}

func TestReliablePrimaryBeatsHedge(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(9, 10)
	// Primary surfaces at 7s; the hedge (issued at 5s, 4s latency)
	// would surface at 9s. The primary wins the race.
	src.set(p, 0, tryOutcome{fc: 0.3, lat: 7 * time.Second})
	src.set(p, 1, tryOutcome{fc: 0.9, lat: 4 * time.Second})
	r, clock, _ := reliableHarness(ReliableConfig{Timeout: 10 * time.Second}, src)

	if got := r.Score(p); got != 0.3 {
		t.Fatalf("Score = %v, want the primary's 0.3", got)
	}
	if e, want := clock.Elapsed(), 7*time.Second; e != want {
		t.Errorf("elapsed %v, want %v", e, want)
	}
}

func TestReliableHedgeDisabled(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(11, 12)
	src.set(p, 0, tryOutcome{fc: 0.7, lat: 8 * time.Second})
	r, clock, rec := reliableHarness(ReliableConfig{Timeout: 10 * time.Second, HedgePercentile: -1}, src)

	if got := r.Score(p); got != 0.7 {
		t.Fatalf("Score = %v, want 0.7", got)
	}
	if e, want := clock.Elapsed(), 8*time.Second; e != want {
		t.Errorf("elapsed %v, want %v", e, want)
	}
	if m := rec.Snapshot(); m.Counters[MetricHedges] != 0 {
		t.Errorf("hedges = %d with hedging disabled", m.Counters[MetricHedges])
	}
	if got := src.attempts[p]; len(got) != 1 {
		t.Errorf("attempts = %v, want the primary only", got)
	}
}

func TestReliableHedgeDelayAdapts(t *testing.T) {
	src := newScriptSource()
	r, _, rec := reliableHarness(ReliableConfig{Timeout: 20 * time.Second}, src)

	// Warm the latency window past hedgeWarmup with 1-second successes:
	// the hedge delay drops from the 10s boot value to ~p95 of 1s.
	for i := 0; i < hedgeWarmup+2; i++ {
		p := record.MakePair(record.ID(100+i), record.ID(200+i))
		src.answers[p] = 0.5
		r.Score(p)
	}
	if d := r.hedgeDelay(); d < 500*time.Millisecond || d > 2*time.Second {
		t.Fatalf("adapted hedge delay = %v, want ≈1s", d)
	}

	// A 9s straggler now gets hedged at ~1s instead of 10s.
	p := record.MakePair(1, 2)
	src.set(p, 0, tryOutcome{fc: 0.2, lat: 9 * time.Second})
	src.set(p, 1, tryOutcome{fc: 0.8, lat: 100 * time.Millisecond})
	if got := r.Score(p); got != 0.8 {
		t.Fatalf("Score = %v, want the hedge's 0.8", got)
	}
	if m := rec.Snapshot(); m.Counters[MetricHedges] != 1 {
		t.Errorf("hedges = %d, want 1", m.Counters[MetricHedges])
	}
}

func TestReliableFallbackAfterBudgetExhausted(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(13, 14)
	// Every primary issue fails fast; latencies below the hedge delay
	// keep hedging out of the picture.
	for a := 0; a <= 4; a++ {
		src.set(p, 2*a, tryOutcome{lat: 100 * time.Millisecond, err: ErrTransient})
	}
	r, _, rec := reliableHarness(ReliableConfig{
		Retries:  2,
		Backoff:  100 * time.Millisecond,
		Fallback: func(record.Pair) float64 { return 0.42 },
	}, src)

	if got := r.Score(p); got != 0.42 {
		t.Fatalf("Score = %v, want the fallback 0.42", got)
	}
	m := rec.Snapshot()
	if m.Counters[MetricFallbacks] != 1 {
		t.Errorf("fallbacks = %d, want 1", m.Counters[MetricFallbacks])
	}
	if m.Counters[MetricRetries] != 2 {
		t.Errorf("retries = %d, want 2 (the full budget)", m.Counters[MetricRetries])
	}
}

func TestReliableNilFallbackScoresZero(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(15, 16)
	for a := 0; a <= 2; a++ {
		src.set(p, 2*a, tryOutcome{lat: 100 * time.Millisecond, err: ErrTransient})
	}
	r, _, _ := reliableHarness(ReliableConfig{Retries: 1}, src)
	if got := r.Score(p); got != 0 {
		t.Fatalf("Score = %v, want 0 (nil fallback treats the pair as a non-duplicate)", got)
	}
}

func TestReliableNegativeRetriesMeansNone(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(17, 18)
	src.set(p, 0, tryOutcome{lat: 100 * time.Millisecond, err: ErrTransient})
	r, _, rec := reliableHarness(ReliableConfig{Retries: -1, Fallback: func(record.Pair) float64 { return 0.9 }}, src)
	if got := r.Score(p); got != 0.9 {
		t.Fatalf("Score = %v, want immediate fallback 0.9", got)
	}
	if m := rec.Snapshot(); m.Counters[MetricRetries] != 0 {
		t.Errorf("retries = %d, want 0", m.Counters[MetricRetries])
	}
}

func TestReliableJitterDeterministicPerSeed(t *testing.T) {
	elapsed := func(seed int64) time.Duration {
		src := newScriptSource()
		p := record.MakePair(19, 20)
		for a := 0; a <= 6; a++ {
			src.set(p, 2*a, tryOutcome{lat: 50 * time.Millisecond, err: ErrTransient})
		}
		clock := NewVirtualClock(time.Time{})
		r := NewReliable(src, ReliableConfig{
			Timeout: 10 * time.Second,
			Retries: 3,
			Backoff: time.Second,
			Seed:    seed,
			Clock:   clock,
		})
		r.Score(p)
		return clock.Elapsed()
	}
	if a, b := elapsed(42), elapsed(42); a != b {
		t.Errorf("same seed, different jittered timelines: %v vs %v", a, b)
	}
	if a, b := elapsed(42), elapsed(43); a == b {
		t.Errorf("different seeds produced identical jitter (%v); suspicious", a)
	}
}

func TestReliableScoreCtxCancelled(t *testing.T) {
	src := newScriptSource()
	p := record.MakePair(21, 22)
	src.answers[p] = 0.5
	r, _, _ := reliableHarness(ReliableConfig{}, src)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ScoreCtx(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(src.attempts[p]) != 0 {
		t.Errorf("a cancelled question still reached the source")
	}
}

func TestReliableScoreBatchCtxStopsMidBatch(t *testing.T) {
	src := newScriptSource()
	pairs := make([]record.Pair, 20)
	for i := range pairs {
		pairs[i] = record.MakePair(record.ID(i), record.ID(i+1000))
		src.answers[pairs[i]] = 0.5
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The decorated source cancels the campaign while answering pair 5.
	n := 0
	cancelAfter := 5
	wrapped := faultFunc{
		src: src,
		hook: func() {
			n++
			if n == cancelAfter {
				cancel()
			}
		},
	}
	out, _, err := NewReliable(wrapped, ReliableConfig{Timeout: 10 * time.Second, Clock: NewVirtualClock(time.Time{})}).AnswerBatch(ctx, pairs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("got partial scores %v on a cancelled batch, want nil", out)
	}
	if n > cancelAfter+1 {
		t.Errorf("batch kept issuing questions after cancellation: %d attempts", n)
	}
}

// faultFunc decorates a faultSource with a per-attempt hook, for
// cancellation-injection tests.
type faultFunc struct {
	src  *scriptSource
	hook func()
}

func (f faultFunc) Score(p record.Pair) float64 { return f.src.Score(p) }
func (f faultFunc) Config() Config              { return f.src.Config() }
func (f faultFunc) TryScore(p record.Pair, attempt int) (float64, time.Duration, error) {
	f.hook()
	return f.src.TryScore(p, attempt)
}

func TestReliableScoreBatchDeterministic(t *testing.T) {
	build := func() (*ReliableSource, []record.Pair) {
		src := newScriptSource()
		pairs := make([]record.Pair, 30)
		for i := range pairs {
			pairs[i] = record.MakePair(record.ID(i), record.ID(i+500))
			src.answers[pairs[i]] = float64(i) / 30
			if i%7 == 0 {
				src.set(pairs[i], 0, tryOutcome{lat: 100 * time.Millisecond, err: ErrTransient})
			}
		}
		r, _, _ := reliableHarness(ReliableConfig{Retries: 2, Seed: 9}, src)
		return r, pairs
	}
	r1, pairs := build()
	a, _, err1 := r1.AnswerBatch(context.Background(), pairs)
	r2, _ := build()
	b, _, err2 := r2.AnswerBatch(context.Background(), pairs)
	if err1 != nil || err2 != nil {
		t.Fatalf("batch errors: %v, %v", err1, err2)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("batch not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != float64(i)/30 {
			t.Errorf("score %d = %v, want %v", i, a[i], float64(i)/30)
		}
	}
}

// TestReliableAnswerSetPanicUnreachable pins the satellite guarantee:
// asking a ReliableSource-wrapped AnswerSet about a non-candidate takes
// the ScoreChecked path and degrades to the fallback — the AnswerSet
// panic is unreachable through the fault-tolerant layer.
func TestReliableAnswerSetPanicUnreachable(t *testing.T) {
	in := record.MakePair(1, 2)
	answers := FixedAnswers(map[record.Pair]float64{in: 1}, ThreeWorker(0))
	r := NewReliable(answers, ReliableConfig{
		Retries:  -1,
		Fallback: func(record.Pair) float64 { return 0.25 },
		Clock:    NewVirtualClock(time.Time{}),
	})

	if got := r.Score(in); got != 1 {
		t.Fatalf("candidate pair scored %v, want 1", got)
	}
	out := record.MakePair(8, 9)
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("non-candidate panicked through ReliableSource: %v", rec)
		}
	}()
	if got := r.Score(out); got != 0.25 {
		t.Fatalf("non-candidate scored %v, want the fallback 0.25", got)
	}
}

func TestAnswerSetScoreChecked(t *testing.T) {
	p := record.MakePair(1, 2)
	answers := FixedAnswers(map[record.Pair]float64{p: 0.7}, ThreeWorker(0))
	rec := obs.New()
	answers.SetRecorder(rec)

	if fc, err := answers.ScoreChecked(p); err != nil || fc != 0.7 {
		t.Fatalf("ScoreChecked = (%v, %v), want (0.7, nil)", fc, err)
	}
	if _, err := answers.ScoreChecked(record.MakePair(3, 4)); !errors.Is(err, ErrNotCandidate) {
		t.Fatalf("err = %v, want ErrNotCandidate", err)
	}
	// Only the successful lookup consulted the oracle.
	if m := rec.Snapshot(); m.Counters[MetricOracleInvocations] != 1 {
		t.Errorf("oracle invocations = %d, want 1", m.Counters[MetricOracleInvocations])
	}
}

func TestReliableLiveSourceRetries(t *testing.T) {
	// A live (non-faultSource) source failing once transiently: the wall
	// clock path retries and succeeds.
	var calls int64
	src := checkedFunc{
		fn: func(p record.Pair) (float64, error) {
			if atomic.AddInt64(&calls, 1) == 1 {
				return 0, ErrTransient
			}
			return 0.75, nil
		},
	}
	r := NewReliable(src, ReliableConfig{
		Timeout: time.Second,
		Retries: 2,
		Backoff: time.Millisecond,
	})
	if got := r.Score(record.MakePair(1, 2)); got != 0.75 {
		t.Fatalf("Score = %v, want 0.75", got)
	}
	if c := atomic.LoadInt64(&calls); c != 2 {
		t.Errorf("source called %d times, want 2", c)
	}
}

func TestReliableLiveSourceTimeoutFallsBack(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	src := checkedFunc{
		fn: func(p record.Pair) (float64, error) {
			<-block
			return 1, nil
		},
	}
	r := NewReliable(src, ReliableConfig{
		Timeout:         10 * time.Millisecond,
		Retries:         -1,
		HedgePercentile: -1,
		Fallback:        func(record.Pair) float64 { return 0.33 },
	})
	if got := r.Score(record.MakePair(1, 2)); got != 0.33 {
		t.Fatalf("Score = %v, want the fallback 0.33", got)
	}
}

// checkedFunc is a minimal checkedSource test double.
type checkedFunc struct {
	fn func(record.Pair) (float64, error)
}

func (c checkedFunc) Score(p record.Pair) float64 {
	fc, err := c.fn(p)
	if err != nil {
		panic(err)
	}
	return fc
}
func (c checkedFunc) Config() Config { return ThreeWorker(0) }
func (c checkedFunc) ScoreChecked(p record.Pair) (float64, error) {
	return c.fn(p)
}

func TestVirtualClockArithmetic(t *testing.T) {
	c := NewVirtualClock(time.Time{})
	start := c.Now()
	if err := c.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	c.Advance(2 * time.Second)
	c.Advance(-time.Hour) // ignored
	if e := c.Elapsed(); e != 5*time.Second {
		t.Errorf("elapsed %v, want 5s", e)
	}
	if got := c.Now().Sub(start); got != 5*time.Second {
		t.Errorf("Now advanced by %v, want 5s", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Errorf("Sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if e := c.Elapsed(); e != 5*time.Second {
		t.Errorf("cancelled Sleep advanced the clock to %v", e)
	}
}
