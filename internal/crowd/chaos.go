package crowd

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"acd/internal/obs"
	"acd/internal/record"
)

// ChaosSource is a seeded, fully deterministic fault injector layered
// over any Source — the test substrate of the fault-tolerance layer. It
// implements faultSource: every TryScore outcome (latency draw, spike,
// drop, transient error, duplicate delivery) is a pure function of
// (Seed, pair, attempt), so the same configuration replays the same
// faults regardless of wall-clock time, and nothing ever sleeps —
// latency is reported, not incurred. Adversarial worker bursts are the
// one order-dependent ingredient: they key off a global question
// counter, which is still deterministic on the sequential simulation
// path ReliableSource uses for faultSources.
//
// The oracle-accounting invariant survives chaos by construction: the
// wrapped source is consulted exactly once per pair, on the pair's
// first attempt, whatever that attempt's fate (the worker answered; the
// platform may then drop, delay or duplicate the delivery). Retries,
// hedges and duplicates replay the cached answer, so on a completed run
// crowd/oracle_invocations still equals crowd/questions_answered.
type ChaosSource struct {
	inner Source
	cfg   ChaosConfig
	rec   *obs.Recorder

	mu    sync.Mutex
	cache map[record.Pair]float64
	errs  map[record.Pair]error
	seen  map[record.Pair]bool // a delivery already succeeded (for dup accounting)
	calls int64                // global question counter driving bursts
}

// ChaosConfig tunes the injected fault mix. All probabilities are in
// [0, 1]; the zero value injects nothing (an identity wrapper with a
// 2-second simulated latency).
type ChaosConfig struct {
	// Seed drives every fault draw.
	Seed int64
	// BaseLatency is the median simulated answer latency (default 2s).
	BaseLatency time.Duration
	// LatencySpread is the log-normal sigma of latency draws (default
	// 0.3; negative means 0, i.e. constant latency).
	LatencySpread float64
	// SpikeProb is the probability an answer's latency is multiplied by
	// SpikeFactor (default factor 25) — the straggler tail hedging is
	// built for.
	SpikeProb   float64
	SpikeFactor float64
	// DropProb is the probability an answer never arrives: the attempt
	// reports a latency beyond any deadline, so the client times out.
	DropProb float64
	// ErrorProb is the probability of a fast transient platform error
	// (ErrTransient) — the retryable failure mode.
	ErrorProb float64
	// DupProb is the probability a successful answer is delivered
	// twice; the duplicate is counted and must be absorbed
	// idempotently downstream.
	DupProb float64
	// BurstEvery opens an adversarial burst window every BurstEvery
	// questions (0 disables bursts); BurstLen is the window length
	// (default 8) and BurstDropProb the drop probability inside it
	// (default 0.9). Bursts model a cohort of workers abandoning their
	// HITs at once.
	BurstEvery    int
	BurstLen      int
	BurstDropProb float64
}

// withDefaults resolves the zero values.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.BaseLatency == 0 {
		c.BaseLatency = 2 * time.Second
	}
	if c.LatencySpread == 0 {
		c.LatencySpread = 0.3
	}
	if c.LatencySpread < 0 {
		c.LatencySpread = 0
	}
	if c.SpikeFactor == 0 {
		c.SpikeFactor = 25
	}
	if c.BurstLen == 0 {
		c.BurstLen = 8
	}
	if c.BurstDropProb == 0 {
		c.BurstDropProb = 0.9
	}
	return c
}

// dropLatency is the "never arrives" latency: far beyond any deadline.
const dropLatency = 365 * 24 * time.Hour

// NewChaos wraps inner in the fault injector. If inner carries a
// metrics recorder it is adopted.
func NewChaos(inner Source, cfg ChaosConfig) *ChaosSource {
	c := &ChaosSource{
		inner: inner,
		cfg:   cfg.withDefaults(),
		cache: make(map[record.Pair]float64),
		errs:  make(map[record.Pair]error),
		seen:  make(map[record.Pair]bool),
	}
	if rc, ok := inner.(RecorderCarrier); ok {
		c.rec = rc.Recorder()
	}
	return c
}

// Config implements Source by delegating to the wrapped source.
func (c *ChaosSource) Config() Config { return c.inner.Config() }

// SetRecorder implements RecorderSetter, pushing the recorder down the
// wrapper chain.
func (c *ChaosSource) SetRecorder(rec *obs.Recorder) {
	c.rec = rec
	if s, ok := c.inner.(RecorderSetter); ok {
		s.SetRecorder(rec)
	}
}

// Recorder implements RecorderCarrier.
func (c *ChaosSource) Recorder() *obs.Recorder { return c.rec }

// Score implements Source: the fault-free path through the answer
// cache, for callers that bypass the fault machinery.
func (c *ChaosSource) Score(p record.Pair) float64 {
	fc, err := c.answer(p)
	if err != nil {
		panic(err.Error())
	}
	return fc
}

// ScoreChecked implements checkedSource without panicking on
// non-candidates.
func (c *ChaosSource) ScoreChecked(p record.Pair) (float64, error) {
	return c.answer(p)
}

// TryScore implements faultSource: one deterministic attempt at p.
func (c *ChaosSource) TryScore(p record.Pair, attempt int) (float64, time.Duration, error) {
	c.mu.Lock()
	idx := c.calls
	c.calls++
	c.mu.Unlock()
	inBurst := c.cfg.BurstEvery > 0 && int(idx%int64(c.cfg.BurstEvery)) < c.cfg.BurstLen

	// The worker answers regardless of what happens to the delivery:
	// the oracle is consulted exactly once per pair, on its first
	// attempt.
	fc, aerr := c.answer(p)

	rng := rand.New(rand.NewSource(chaosSeed(c.cfg.Seed, p, attempt)))
	lat := c.latency(rng)
	if aerr != nil {
		// Non-candidate (or other permanent error): surfaces quickly.
		return 0, lat / 4, aerr
	}

	errP, dropP := c.cfg.ErrorProb, c.cfg.DropProb
	if inBurst && c.cfg.BurstDropProb > dropP {
		dropP = c.cfg.BurstDropProb
	}
	switch u := rng.Float64(); {
	case u < errP:
		c.rec.Count(MetricChaosFaults, 1)
		return 0, lat / 4, ErrTransient
	case u < errP+dropP:
		c.rec.Count(MetricChaosFaults, 1)
		return fc, dropLatency, nil // answer never arrives
	}
	if rng.Float64() < c.cfg.SpikeProb {
		c.rec.Count(MetricChaosFaults, 1)
		lat = time.Duration(float64(lat) * c.cfg.SpikeFactor)
	}
	if rng.Float64() < c.cfg.DupProb {
		// A second copy of an already-successful delivery: idempotent
		// by construction (same cached answer), counted so tests can
		// pin that duplicates occurred and changed nothing.
		c.mu.Lock()
		dup := c.seen[p]
		c.seen[p] = true
		c.mu.Unlock()
		if dup {
			c.rec.Count(MetricChaosDuplicates, 1)
		}
	} else {
		c.mu.Lock()
		c.seen[p] = true
		c.mu.Unlock()
	}
	return fc, lat, nil
}

// Calls returns the number of TryScore attempts the injector has seen —
// the denominator of a sweep's fault-rate accounting.
func (c *ChaosSource) Calls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// answer consults the wrapped source exactly once per pair and caches
// the outcome (score or permanent error).
func (c *ChaosSource) answer(p record.Pair) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.cache[p]; ok {
		return fc, nil
	}
	if err, ok := c.errs[p]; ok {
		return 0, err
	}
	fc, err := scoreOnce(c.inner, p)
	if err != nil {
		c.errs[p] = err
		return 0, err
	}
	c.cache[p] = fc
	return fc, nil
}

// latency draws a log-normal-ish simulated answer latency.
func (c *ChaosSource) latency(rng *rand.Rand) time.Duration {
	factor := 1.0
	if c.cfg.LatencySpread > 0 {
		x := c.cfg.LatencySpread * rng.NormFloat64()
		if x > 3 {
			x = 3
		}
		if x < -3 {
			x = -3
		}
		factor = math.Exp(x)
	}
	return time.Duration(float64(c.cfg.BaseLatency) * factor)
}

// chaosSeed derives the per-(pair, attempt) RNG seed, mixing the same
// way pairSeed does so outcomes are independent of call order.
func chaosSeed(seed int64, p record.Pair, attempt int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(p.Lo)*0xbf58476d1ce4e5b9 +
		uint64(p.Hi)*0x94d049bb133111eb + uint64(attempt)*0xd6e8feb86659fd93
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return int64(h & 0x7fffffffffffffff)
}
