package scenarios

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"acd/internal/load"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/serve"
)

// The marketplace scenarios drive /resolve against a crowd fleet
// (internal/market): degraded-crowd runs one faulty backend,
// mixed-fleet measures budget-aware routing under a mid-run price
// spike on the cheap backend, and backend-outage measures the fault
// path when the router's preferred backend stops answering (every
// question drops, forcing the retry/degrade machinery). All fold the
// router's accounting — total and per-backend spend, routed and
// inferred question counts — into the report's Extra metrics, which
// flow into BENCH_N.json as Load/<scenario>/scenario.

// startMarketServer boots a journaled server whose resolve questions
// route through a marketplace built from spec (with optional scheduled
// price spikes). The returned recorder carries the market/* and
// crowd/backend/* counters the scenario reads after the run.
func startMarketServer(o Options, name, spec string, spikes []market.Spike) (*serve.Local, *obs.Recorder, error) {
	rec := obs.New()
	backends, err := market.Fleet(spec, serve.PairScore(o.Seed), o.Seed)
	if err != nil {
		return nil, nil, err
	}
	m := market.New(market.Config{
		Backends:     backends,
		BudgetCents:  market.Unlimited,
		Order:        market.OrderConfidence,
		ShortCircuit: true,
		Spikes:       spikes,
		Seed:         o.Seed,
	})
	m.SetRecorder(rec)
	l, err := serve.StartLocal(serve.Config{
		Journal:      filepath.Join(o.Dir, name),
		Shards:       o.Shards,
		Seed:         o.Seed,
		CommitWindow: o.CommitWindow,
		RotateBytes:  o.RotateBytes,
		Obs:          rec,
		Source:       m,
	})
	if err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

// runMarketScenario is the shared body: boot a marketplace server, run
// a resolve-heavy workload shape (the measurement of interest is the
// /resolve path, not ingest), then fold the router's spend accounting
// into the report.
func runMarketScenario(o Options, name, spec string, spikes []market.Spike, shape func(*load.Config)) (*load.Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	specs, err := market.ParseFleet(spec)
	if err != nil {
		return nil, err
	}
	l, rec, err := startMarketServer(o, name, spec, spikes)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	pool, err := o.pool()
	if err != nil {
		return nil, err
	}
	warmup, measure := o.phases()
	cfg := load.Config{
		Target:       l.URL,
		Pool:         pool,
		Warmup:       warmup,
		Duration:     measure,
		Seed:         o.Seed,
		Mix:          load.Mix{Records: 10, Answers: 5, Clusters: 60, Metrics: 25},
		Concurrency:  8,
		ResolveEvery: 400 * time.Millisecond,
	}
	if o.Smoke {
		cfg.Concurrency = 4
		cfg.ResolveEvery = 150 * time.Millisecond
	}
	if shape != nil {
		shape(&cfg)
	}
	g, err := load.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "scenario %s: fleet %q, %d shards, warmup %v, measure %v\n",
		name, spec, o.Shards, warmup, measure)
	rep, err := g.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	rep.Scenario = name
	rep.Shards = o.Shards
	if errs := rep.TotalErrors(); errs > 0 {
		return rep, fmt.Errorf("scenario %s: %d request errors during measured window", name, errs)
	}
	rep.Extra = map[string]float64{
		"spend_cents":      float64(rec.Counter(market.MetricSpendCents)),
		"routed":           float64(rec.Counter(market.MetricRouted)),
		"short_circuited":  float64(rec.Counter(market.MetricShortCircuited)),
		"budget_fallbacks": float64(rec.Counter(market.MetricFallbacks)),
	}
	for _, s := range specs {
		rep.Extra["spend_"+s.ID+"_cents"] = float64(rec.Counter(market.BackendMetric(s.ID, "cents")))
		rep.Extra["questions_"+s.ID] = float64(rec.Counter(market.BackendMetric(s.ID, "questions")))
	}
	if err := l.Close(); err != nil {
		return rep, fmt.Errorf("scenario %s: closing server: %w", name, err)
	}
	return rep, nil
}

// runMixedFleet routes resolve questions across the default
// heterogeneous fleet while the cheap backend's price spikes 8× partway
// through the run: the router must shift purchases toward the
// now-relatively-cheaper accurate channel (or the free machine
// fallback) without stalling resolves. The spike lands early enough
// that both price regimes fall inside the measured window.
func runMixedFleet(o Options) (*load.Report, error) {
	after := 400
	if o.Smoke {
		after = 40
	}
	return runMarketScenario(o, "mixed-fleet", market.DefaultFleetSpec,
		[]market.Spike{{Backend: "fast", After: after, Factor: 8}}, nil)
}

// runBackendOutage is the marketplace fault drill: the cheap backend
// the router prefers drops every question (ChaosSource drop ≈ 1), so
// each purchase from it rides the retry-then-degrade path while the
// careful backend and the machine fallback keep answers flowing. The
// measurement of interest is how much the outage stretches /resolve
// while snapshot reads stay flat — the degraded-crowd question, asked
// of the marketplace's per-backend fault isolation.
func runBackendOutage(o Options) (*load.Report, error) {
	// The dropped backend's retry deadline is pinned tight: each of its
	// questions burns (timeout × attempts) before degrading, and with
	// the default crowd-scale deadline a 98% outage would stretch every
	// resolve past the measured window.
	spec := "fast:1:20:0.12:drop=0.98:timeout=1ms;careful:6:10:0.02:lat=1ms;machine:0:0:0.35:machine"
	if o.Smoke {
		spec = "fast:1:20:0.12:drop=0.98:timeout=250us;careful:6:10:0.02;machine:0:0:0.35:machine"
	}
	// Even with a tight timeout, every dropped question still pays real
	// retry sleeps, so resolves run long — the window stretches (as the
	// degraded-crowd scenario's does) and the resolve cadence tightens so
	// each pass's question backlog stays small enough to finish inside it.
	return runMarketScenario(o, "backend-outage", spec, nil, func(c *load.Config) {
		if o.Smoke {
			c.ResolveEvery = 100 * time.Millisecond
			c.Duration = 2500 * time.Millisecond
		}
	})
}
