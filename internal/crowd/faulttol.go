package crowd

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"

	"acd/internal/obs"
	"acd/internal/record"
)

// The paper's evaluation runs against a live AMT deployment where
// workers time out, abandon HITs, and return noisy answers; CrowdER
// (VLDB 2012) and the transitive-relations work (SIGMOD 2013) both
// report that HIT latency variance and worker unreliability — not
// algorithmic cost — dominate end-to-end crowdsourcing runs. This file
// is the layer that lets the pipeline survive such a crowd: a
// ReliableSource wraps any Source with per-question deadlines, bounded
// retries with exponential backoff and jitter, hedged re-issue of
// stragglers, and graceful degradation to the machine probability when
// the retry budget is exhausted, so a misbehaving backend degrades
// accuracy instead of wedging the run.

// ErrCrowdTimeout reports a question whose answer did not arrive within
// the per-question deadline (including any hedged re-issue).
var ErrCrowdTimeout = errors.New("crowd: question timed out")

// ErrTransient reports a retryable platform failure (the simulated
// equivalent of an HTTP 5xx or an abandoned HIT). ChaosSource injects
// it; live adapters may return it from ScoreChecked-style paths.
var ErrTransient = errors.New("crowd: transient platform error")

// ErrNotCandidate reports a question about a pair outside the candidate
// set — the checked equivalent of AnswerSet.Score's panic. It is not
// retryable in any useful sense; ReliableSource exhausts its budget and
// falls back.
var ErrNotCandidate = errors.New("crowd: pair was never posted (not a candidate)")

// checkedSource is implemented by sources that can answer a pair
// without panicking on non-candidates. The fault-tolerant path prefers
// it over Source.Score, which keeps AnswerSet's panic on out-of-set
// pairs unreachable from ReliableSource.
type checkedSource interface {
	// ScoreChecked returns f_c for p, or an error (ErrNotCandidate for
	// pairs outside the candidate set, ErrTransient for retryable
	// platform failures).
	ScoreChecked(p record.Pair) (float64, error)
}

// faultSource is implemented by sources that expose single attempts
// with explicit, simulated latency — ChaosSource, the deterministic-
// simulation substrate. TryScore never sleeps: it reports how long the
// attempt *would* take, and ReliableSource advances its Clock by the
// resulting completion time. Attempt indices make outcomes independent
// of call order: attempt 2a is the a-th primary issue of p, 2a+1 its
// hedge.
type faultSource interface {
	Source
	// TryScore makes one attempt at answering p. It returns the score,
	// the simulated latency until the outcome surfaces, and a non-nil
	// error for failed attempts (transient errors, non-candidates). A
	// "dropped" answer is modelled as a success with a latency beyond
	// any reasonable deadline.
	TryScore(p record.Pair, attempt int) (fc float64, latency time.Duration, err error)
}

// Defaults for ReliableConfig's zero values.
const (
	// DefaultTimeout is the per-question deadline.
	DefaultTimeout = time.Minute
	// DefaultRetries is the number of re-issues after the first attempt.
	DefaultRetries = 2
	// DefaultBackoff is the base backoff between retries.
	DefaultBackoff = 200 * time.Millisecond
	// DefaultBackoffFactor is the exponential backoff multiplier.
	DefaultBackoffFactor = 2.0
	// DefaultMaxBackoff caps the grown backoff.
	DefaultMaxBackoff = 5 * time.Second
	// DefaultJitterFrac is the ± fraction of jitter applied to backoff.
	DefaultJitterFrac = 0.2
	// DefaultHedgePercentile is the attempt-latency percentile after
	// which a straggling question is hedged with a second issue.
	DefaultHedgePercentile = 0.95
	// hedgeWarmup is how many latency samples the percentile estimate
	// needs before it replaces the boot hedge delay (Timeout/2).
	hedgeWarmup = 8
	// latencyWindow bounds the percentile sample buffer.
	latencyWindow = 128
)

// ReliableConfig tunes a ReliableSource. The zero value is usable: it
// means DefaultTimeout, DefaultRetries, the default backoff schedule,
// p95 hedging, no fallback function (failed questions score 0), and the
// wall clock.
type ReliableConfig struct {
	// Timeout is the per-question deadline covering the primary attempt
	// and its hedge together. Zero means DefaultTimeout.
	Timeout time.Duration
	// Retries is how many times a failed question is re-issued after
	// the first attempt. Zero means DefaultRetries; negative means no
	// retries at all.
	Retries int
	// Backoff, BackoffFactor and MaxBackoff shape the exponential
	// backoff between retries (zero values take the defaults).
	Backoff       time.Duration
	BackoffFactor float64
	MaxBackoff    time.Duration
	// JitterFrac spreads each backoff uniformly in ±JitterFrac around
	// its nominal value, decorrelating retry storms. Zero means
	// DefaultJitterFrac; negative disables jitter.
	JitterFrac float64
	// HedgePercentile picks the observed attempt-latency percentile at
	// which a still-unanswered question is re-issued (hedged). Zero
	// means DefaultHedgePercentile; negative disables hedging. Until
	// hedgeWarmup samples exist the hedge delay is Timeout/2.
	HedgePercentile float64
	// Seed drives the jitter RNG; equal seeds give equal backoff
	// sequences.
	Seed int64
	// Concurrency bounds the worker pool AnswerBatch uses on the
	// live (non-faultSource) path; values < 1 mean 8. The
	// deterministic-simulation path is always sequential, which is
	// what makes it reproducible.
	Concurrency int
	// Fallback supplies the degraded answer for a question whose retry
	// budget is exhausted — the machine probability f from the pruning
	// phase (Candidates.Score) in the ACD pipeline. Nil falls back to
	// 0 (treat the pair as a non-duplicate).
	Fallback func(record.Pair) float64
	// Clock is the time source: nil means the wall clock. Tests pass a
	// *VirtualClock so deadlines and backoff are simulated arithmetic.
	Clock Clock
}

// withDefaults resolves the zero values.
func (c ReliableConfig) withDefaults() ReliableConfig {
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff == 0 {
		c.Backoff = DefaultBackoff
	}
	if c.BackoffFactor == 0 {
		c.BackoffFactor = DefaultBackoffFactor
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = DefaultJitterFrac
	}
	if c.JitterFrac < 0 {
		c.JitterFrac = 0
	}
	if c.HedgePercentile == 0 {
		c.HedgePercentile = DefaultHedgePercentile
	}
	if c.Concurrency < 1 {
		c.Concurrency = 8
	}
	if c.Clock == nil {
		c.Clock = WallClock()
	}
	return c
}

// ReliableSource wraps a Source with the fault-tolerance state machine:
//
//	ask ──► attempt (deadline-bounded, hedged at the p-th latency
//	        percentile) ──► success: answer
//	          │ failure/timeout
//	          ▼
//	        retry with exponential backoff + jitter, up to Retries
//	          │ budget exhausted
//	          ▼
//	        fallback to the machine probability f (graceful degradation)
//
// Every retry, hedge, timeout and fallback is counted on the attached
// obs recorder. When the inner source implements faultSource the whole
// machine runs in simulated time on the configured Clock — fully
// deterministic, no sleeps; otherwise attempts run as goroutines
// against the wall clock.
type ReliableSource struct {
	inner Source
	cfg   ReliableConfig
	rec   *obs.Recorder

	mu     sync.Mutex
	jitter *rand.Rand
	lats   []time.Duration // recent successful attempt latencies (ring)
	latPos int
	latN   int
}

// NewReliable wraps inner in the fault-tolerance layer. If inner
// carries a metrics recorder (RecorderCarrier) it is adopted, so an
// instrumented AnswerSet stays instrumented through the wrapper chain.
func NewReliable(inner Source, cfg ReliableConfig) *ReliableSource {
	r := &ReliableSource{
		inner:  inner,
		cfg:    cfg.withDefaults(),
		jitter: rand.New(rand.NewSource(cfg.Seed)),
		lats:   make([]time.Duration, latencyWindow),
	}
	if c, ok := inner.(RecorderCarrier); ok {
		r.rec = c.Recorder()
	}
	return r
}

// Config implements Source by delegating to the wrapped source.
func (r *ReliableSource) Config() Config { return r.inner.Config() }

// SetRecorder implements RecorderSetter: it attaches rec here and
// pushes it down the wrapper chain so oracle accounting stays in the
// same snapshot.
func (r *ReliableSource) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	if s, ok := r.inner.(RecorderSetter); ok {
		s.SetRecorder(rec)
	}
}

// Recorder implements RecorderCarrier.
func (r *ReliableSource) Recorder() *obs.Recorder { return r.rec }

// Score implements Source. Cancellation errors cannot occur under the
// background context, so the answer (possibly a fallback) is returned
// directly.
func (r *ReliableSource) Score(p record.Pair) float64 {
	fc, _ := r.ScoreCtx(context.Background(), p)
	return fc
}

// ScoreCtx answers one pair through the full retry/hedge/fallback
// machine. The only non-nil errors it returns are ctx's: every crowd
// failure mode ends in the fallback answer instead.
func (r *ReliableSource) ScoreCtx(ctx context.Context, p record.Pair) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var fc float64
		var err error
		if fs, ok := r.inner.(faultSource); ok {
			fc, err = r.attemptSim(ctx, fs, p, attempt)
		} else {
			fc, err = r.attemptLive(ctx, p)
		}
		if err == nil {
			return fc, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return 0, cerr
		}
		if attempt < r.cfg.Retries {
			r.rec.Count(MetricRetries, 1)
			if serr := r.cfg.Clock.Sleep(ctx, r.backoff(attempt)); serr != nil {
				return 0, serr
			}
		}
	}
	// Retry budget exhausted: degrade to the machine probability rather
	// than wedging the run.
	r.rec.Count(MetricFallbacks, 1)
	if r.cfg.Fallback != nil {
		return r.cfg.Fallback(p), nil
	}
	return 0, nil
}

// AnswerBatch implements BatchAnswerer, billed at the Config() rate.
// Over a faultSource it resolves pairs sequentially in simulated time
// (the deterministic path); over a live source it fans out across a
// fixed pool of Concurrency workers.
func (r *ReliableSource) AnswerBatch(ctx context.Context, pairs []record.Pair) ([]float64, Bill, error) {
	bill := Bill{Votes: len(pairs) * r.Config().Workers}
	if _, deterministic := r.inner.(faultSource); deterministic || r.cfg.Concurrency == 1 {
		out := make([]float64, len(pairs))
		for i, p := range pairs {
			fc, err := r.ScoreCtx(ctx, p)
			if err != nil {
				return nil, bill, err
			}
			out[i] = fc
		}
		return out, bill, nil
	}
	out, err := scorePool(ctx, pairs, r.cfg.Concurrency, func(p record.Pair) float64 {
		fc, _ := r.ScoreCtx(ctx, p)
		return fc
	})
	return out, bill, err
}

// attemptSim runs one deadline-bounded, hedged attempt in simulated
// time: latencies are reported by the faultSource, compared against the
// hedge delay and the deadline arithmetically, and the Clock advances
// by however long the client would have waited. Attempt a issues
// TryScore index 2a; its hedge, 2a+1.
func (r *ReliableSource) attemptSim(ctx context.Context, fs faultSource, p record.Pair, a int) (float64, error) {
	timeout := r.cfg.Timeout
	hedgeAt := r.hedgeDelay()

	r.rec.Count(MetricAttempts, 1)
	fc1, lat1, err1 := fs.TryScore(p, 2*a)

	// The primary's outcome surfaces before the hedge would fire (or
	// hedging is disabled): no hedge.
	if hedgeAt >= timeout || lat1 <= hedgeAt {
		switch {
		case err1 == nil && lat1 <= timeout:
			r.observeLatency(lat1)
			return fc1, r.cfg.Clock.Sleep(ctx, lat1)
		case err1 != nil && lat1 <= timeout:
			if serr := r.cfg.Clock.Sleep(ctx, lat1); serr != nil {
				return 0, serr
			}
			return 0, err1
		default:
			r.rec.Count(MetricTimeouts, 1)
			if serr := r.cfg.Clock.Sleep(ctx, timeout); serr != nil {
				return 0, serr
			}
			return 0, ErrCrowdTimeout
		}
	}

	// Straggler: a second issue races the primary from hedgeAt.
	r.rec.Count(MetricHedges, 1)
	r.rec.Count(MetricAttempts, 1)
	fc2, lat2, err2 := fs.TryScore(p, 2*a+1)
	done2 := hedgeAt + lat2

	best := time.Duration(-1)
	bestFC := 0.0
	if err1 == nil && lat1 <= timeout {
		best, bestFC = lat1, fc1
	}
	if err2 == nil && done2 <= timeout && (best < 0 || done2 < best) {
		best, bestFC = done2, fc2
	}
	if best >= 0 {
		r.observeLatency(best)
		return bestFC, r.cfg.Clock.Sleep(ctx, best)
	}
	// No success inside the window: a definitive failure if both issues
	// errored before the deadline, a timeout otherwise.
	if err1 != nil && lat1 <= timeout && err2 != nil && done2 <= timeout {
		at := lat1
		if done2 > at {
			at = done2
		}
		if serr := r.cfg.Clock.Sleep(ctx, at); serr != nil {
			return 0, serr
		}
		return 0, err1
	}
	r.rec.Count(MetricTimeouts, 1)
	if serr := r.cfg.Clock.Sleep(ctx, timeout); serr != nil {
		return 0, serr
	}
	return 0, ErrCrowdTimeout
}

// attemptLive runs one deadline-bounded, hedged attempt against a live
// source on the wall clock. Abandoned issues deliver into a buffered
// channel and exit; a live adapter whose Score can block forever should
// enforce its own internal timeout.
func (r *ReliableSource) attemptLive(ctx context.Context, p record.Pair) (float64, error) {
	type res struct {
		fc  float64
		err error
	}
	ch := make(chan res, 2) // primary + at most one hedge
	issue := func() {
		fc, err := scoreOnce(r.inner, p)
		ch <- res{fc, err}
	}
	start := r.cfg.Clock.Now()
	r.rec.Count(MetricAttempts, 1)
	go issue()

	deadline := time.NewTimer(r.cfg.Timeout)
	defer deadline.Stop()
	hedgeDelay := r.hedgeDelay()
	var hedgeC <-chan time.Time
	if hedgeDelay < r.cfg.Timeout {
		hedge := time.NewTimer(hedgeDelay)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	outstanding := 1
	for {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case v := <-ch:
			if v.err == nil {
				r.observeLatency(r.cfg.Clock.Now().Sub(start))
				return v.fc, nil
			}
			outstanding--
			if outstanding == 0 {
				return 0, v.err
			}
		case <-hedgeC:
			hedgeC = nil // fire once
			r.rec.Count(MetricHedges, 1)
			r.rec.Count(MetricAttempts, 1)
			outstanding++
			go issue()
		case <-deadline.C:
			r.rec.Count(MetricTimeouts, 1)
			return 0, ErrCrowdTimeout
		}
	}
}

// scoreOnce answers one pair through the panic-free path when the
// source provides it.
func scoreOnce(src Source, p record.Pair) (float64, error) {
	if cs, ok := src.(checkedSource); ok {
		return cs.ScoreChecked(p)
	}
	return src.Score(p), nil
}

// backoff computes the jittered exponential backoff before re-issue
// number attempt+1.
func (r *ReliableSource) backoff(attempt int) time.Duration {
	d := float64(r.cfg.Backoff)
	for i := 0; i < attempt; i++ {
		d *= r.cfg.BackoffFactor
	}
	if max := float64(r.cfg.MaxBackoff); d > max {
		d = max
	}
	if r.cfg.JitterFrac > 0 {
		r.mu.Lock()
		u := r.jitter.Float64()
		r.mu.Unlock()
		d *= 1 + r.cfg.JitterFrac*(2*u-1)
	}
	return time.Duration(d)
}

// observeLatency records a successful attempt's completion latency into
// the percentile window and the obs histogram.
func (r *ReliableSource) observeLatency(d time.Duration) {
	r.rec.Observe(MetricAttemptLatency, d.Seconds())
	r.mu.Lock()
	r.lats[r.latPos] = d
	r.latPos = (r.latPos + 1) % len(r.lats)
	if r.latN < len(r.lats) {
		r.latN++
	}
	r.mu.Unlock()
}

// hedgeDelay returns the current straggler threshold: the configured
// percentile of recent attempt latencies, clamped below the deadline;
// Timeout/2 until enough samples exist; >= Timeout (never fires) when
// hedging is disabled.
func (r *ReliableSource) hedgeDelay() time.Duration {
	if r.cfg.HedgePercentile < 0 {
		return r.cfg.Timeout // never fires
	}
	boot := r.cfg.Timeout / 2
	r.mu.Lock()
	n := r.latN
	var sample []time.Duration
	if n >= hedgeWarmup {
		sample = append(sample, r.lats[:n]...)
	}
	r.mu.Unlock()
	if sample == nil {
		return boot
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := int(float64(n)*r.cfg.HedgePercentile+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	d := sample[idx]
	if d >= r.cfg.Timeout {
		d = r.cfg.Timeout - 1
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
