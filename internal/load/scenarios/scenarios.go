// Package scenarios is the orchestrated serving-layer benchmark suite:
// each scenario boots a real journaled acdserve in-process
// (internal/serve), drives it with a configured internal/load workload,
// and returns the load report. The suite covers steady state
// (baseline), saturation (high-load), flash crowds (bursty), snapshot
// read stress (read-heavy), a slow faulty crowd behind /resolve
// (degraded-crowd), a mid-ingest crash image whose recovery is
// checked against the committed-prefix contract (crash-restart), the
// replication topology: followers absorbing snapshot reads
// (replica-reads) and a leader kill with follower promotion
// (replica-failover), and the crowd marketplace: budget-aware routing
// under a mid-run price spike (mixed-fleet) and the preferred
// backend dropping every question (backend-outage). Every
// scenario runs in a seconds-scale smoke mode (CI) and a full mode
// (committed BENCH numbers); scripts/loadbench.sh orchestrates both,
// and docs/serving.md maps each scenario to the question it answers.
package scenarios

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"acd/internal/dataset"
	"acd/internal/load"
	"acd/internal/obs"
	"acd/internal/serve"
)

// Options configures one suite run; the zero value needs only Dir.
type Options struct {
	// Dir is the scratch directory for journals and crash images
	// (required; each scenario uses its own subdirectory).
	Dir string
	// Shards is the server shard count (default 1).
	Shards int
	// Smoke shrinks every scenario to a seconds-scale run for CI; full
	// mode produces the committed benchmark numbers.
	Smoke bool
	// Seed drives the server permutations and the workload sequence
	// (default 1).
	Seed int64
	// CommitWindow enables journal group commit on the scenario
	// servers: appends within the window share one fsync and acks are
	// pipelined. 0 keeps one fsync per event. The
	// crash-restart-groupcommit scenario forces it on.
	CommitWindow time.Duration
	// RotateBytes rotates scenario-server WAL segments past this size
	// (0 = no rotation).
	RotateBytes int64
	// Log receives progress lines (nil = discard).
	Log io.Writer
}

// withDefaults validates and resolves the zero values.
func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("scenarios: Dir required")
	}
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Shards < 0 {
		return o, fmt.Errorf("scenarios: negative shard count")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o, nil
}

// phases returns the warmup and measured durations for the mode.
func (o Options) phases() (warmup, measure time.Duration) {
	if o.Smoke {
		return 100 * time.Millisecond, 700 * time.Millisecond
	}
	return 2 * time.Second, 8 * time.Second
}

// pool builds the churn pool for the mode.
func (o Options) pool() ([]load.Payload, error) {
	cfg := dataset.SyntheticConfig{Entities: 500, Records: 5000, Seed: o.Seed}
	if o.Smoke {
		cfg.Entities, cfg.Records = 60, 300
	}
	return load.SyntheticPool(cfg)
}

// Scenario is one named benchmark: a workload shape plus the server
// configuration it runs against.
type Scenario struct {
	// Name is the CLI-facing identifier (stable; documented in
	// docs/serving.md).
	Name string
	// Desc is a one-line description for -list output.
	Desc string
	// Run executes the scenario and returns its report.
	Run func(Options) (*load.Report, error)
}

// All returns every scenario in canonical order.
func All() []Scenario {
	return []Scenario{
		{
			Name: "baseline",
			Desc: "steady-state default mix, closed loop at moderate concurrency",
			Run:  runBaseline,
		},
		{
			Name: "high-load",
			Desc: "write-heavy mix at high closed-loop concurrency (saturation)",
			Run:  runHighLoad,
		},
		{
			Name: "bursty",
			Desc: "open-loop Poisson arrivals with square-wave rate bursts",
			Run:  runBursty,
		},
		{
			Name: "read-heavy",
			Desc: "snapshot read stress: mostly GET /clusters while resolves churn",
			Run:  runReadHeavy,
		},
		{
			Name: "degraded-crowd",
			Desc: "resolves against a one-backend crowd fleet with injected latency, drops and errors",
			Run:  runDegradedCrowd,
		},
		{
			Name: "crash-restart",
			Desc: "mid-ingest crash image; recovery checked against the committed-prefix contract",
			Run:  runCrashRestart,
		},
		{
			Name: "crash-restart-groupcommit",
			Desc: "the crash drill with group commit and segment rotation on; same committed-prefix contract",
			Run:  runCrashRestartGroupCommit,
		},
		{
			Name: "replica-reads",
			Desc: "leader takes writes while two followers absorb every snapshot read",
			Run:  runReplicaReads,
		},
		{
			Name: "replica-failover",
			Desc: "leader killed mid-ingest; follower promoted over its journals, committed-prefix contract checked",
			Run:  runReplicaFailover,
		},
		{
			Name: "mixed-fleet",
			Desc: "resolves buy answers across a heterogeneous crowd fleet; the cheap backend's price spikes mid-run",
			Run:  runMixedFleet,
		},
		{
			Name: "backend-outage",
			Desc: "the router's preferred backend drops every question; retry/degrade keeps resolves flowing",
			Run:  runBackendOutage,
		},
	}
}

// Find returns the named scenario.
func Find(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// startServer boots a journaled in-process server for a scenario.
func startServer(o Options, name string) (*serve.Local, error) {
	return serve.StartLocal(serve.Config{
		Journal:      filepath.Join(o.Dir, name),
		Shards:       o.Shards,
		Seed:         o.Seed,
		CommitWindow: o.CommitWindow,
		RotateBytes:  o.RotateBytes,
		Obs:          obs.New(),
	})
}

// runWorkload is the shared scenario body: boot a server, run one
// generator configuration against it, close gracefully, label the
// report.
func runWorkload(o Options, name string, shape func(*load.Config)) (*load.Report, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	l, err := startServer(o, name)
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
		Target:   l.URL,
		Pool:     pool,
		Warmup:   warmup,
		Duration: measure,
		Seed:     o.Seed,
	}
	shape(&cfg)
	g, err := load.New(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "scenario %s: %d shards, warmup %v, measure %v\n", name, o.Shards, warmup, measure)
	rep, err := g.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	rep.Scenario = name
	rep.Shards = o.Shards
	if errs := rep.TotalErrors(); errs > 0 {
		return rep, fmt.Errorf("scenario %s: %d request errors during measured window", name, errs)
	}
	if err := l.Close(); err != nil {
		return rep, fmt.Errorf("scenario %s: closing server: %w", name, err)
	}
	return rep, nil
}

func runBaseline(o Options) (*load.Report, error) {
	return runWorkload(o, "baseline", func(c *load.Config) {
		c.Concurrency = 8
		c.ResolveEvery = 500 * time.Millisecond
		if o.Smoke {
			c.Concurrency = 4
			c.ResolveEvery = 200 * time.Millisecond
		}
	})
}

func runHighLoad(o Options) (*load.Report, error) {
	return runWorkload(o, "high-load", func(c *load.Config) {
		c.Mix = load.Mix{Records: 70, Answers: 20, Clusters: 8, Metrics: 2}
		c.Concurrency = 32
		c.RecordBatch = 16
		if o.Smoke {
			c.Concurrency = 8
		}
	})
}

func runBursty(o Options) (*load.Report, error) {
	return runWorkload(o, "bursty", func(c *load.Config) {
		c.Arrival = load.ArrivalPoisson
		c.Concurrency = 64
		c.Rate = 300
		c.Burst = &load.Burst{Rate: 1500, Period: 2 * time.Second, Duty: 0.3}
		if o.Smoke {
			c.Rate = 150
			c.Burst = &load.Burst{Rate: 600, Period: 400 * time.Millisecond, Duty: 0.3}
		}
	})
}

func runReadHeavy(o Options) (*load.Report, error) {
	return runWorkload(o, "read-heavy", func(c *load.Config) {
		c.Mix = load.Mix{Records: 8, Answers: 2, Clusters: 70, Metrics: 20}
		c.Concurrency = 16
		c.ResolveEvery = 300 * time.Millisecond
		if o.Smoke {
			c.Concurrency = 8
			c.ResolveEvery = 150 * time.Millisecond
		}
	})
}

func runDegradedCrowd(o Options) (*load.Report, error) {
	// One crowd backend with real injected latency, drops and transient
	// errors behind a tight deadline, one retry and the pseudo-crowd
	// answer as fallback. Fault rates stay constant across modes; only
	// the latency scale shrinks for smoke. A 25x latency spike would
	// land past the deadline, where the client sees it as a drop, so
	// spikes are folded into drop=. Resolve cost is close to (pending
	// pairs x per-query crowd latency), so the marketplace scenarios'
	// ingest-light, resolve-heavy mix applies: the measurement of
	// interest is how much the faulty crowd stretches /resolve while
	// snapshot reads stay flat.
	spec := "crowd:2:20:0:lat=500us:drop=0.1:fault=0.05:timeout=10ms:workers=3"
	if o.Smoke {
		spec = "crowd:2:20:0:lat=20us:drop=0.1:fault=0.05:timeout=1ms:workers=3"
	}
	return runMarketScenario(o, "degraded-crowd", spec, nil, func(c *load.Config) {
		if o.Smoke {
			c.Duration = 1200 * time.Millisecond
		}
	})
}
