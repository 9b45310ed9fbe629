package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acd/internal/crowd"
	"acd/internal/incremental"
	"acd/internal/obs"
	"acd/internal/shard"
)

// Serve-mixed workload: an open Poisson loop against a store preloaded
// with mixedPreload records and resolved once. Traffic steps up the
// rate ladder until a rung falls behind, and a POST /resolve is due
// every resolveEvery on the same connections.
//
// The traffic shape is the repository's degraded-crowd load scenario
// (runDegradedCrowd in internal/load/scenarios): its operation mix,
// its resolve cadence, and internal/load's default body sizes (8
// records per POST /records, 4 answers per POST /answers).
const (
	mixedPreload   = 3000
	mixedBatch     = 8
	answersPerPost = 4
	resolveEvery   = 400 * time.Millisecond
	// lagLimit bounds a rung's lag: its records_p90_ms, and how long
	// after the rung's end its backlog takes to drain. A rung within
	// it holds its rate.
	lagLimit = 500 * time.Millisecond
	// refShare and rungShare are the reference rung's and every other
	// rung's length as shares of --seconds.
	refShare  = 0.6
	rungShare = 0.08
)

// ladder is the sequence of offered rates in operations per second.
// The first is the reference rung, whose latencies are the end-to-end
// latency metrics: at about a fifth of the knee (near 450–500 ops/s on
// two vCPUs) they are mostly service time, and it is the longest rung, so
// its percentiles rest on enough samples. Above it, steps of 50 ops/s
// up to 600 keep the max rate (throughput_per_s) sensitive to a
// capacity change smaller than its bound.
var ladder = []float64{100, 200, 250, 300, 350, 400, 450, 500, 550, 600, 700, 800, 1000, 1200}

const referenceRung = 0

// opKind is the kind of one scheduled request.
type opKind int

const (
	opClusters opKind = iota
	opMetrics
	opRecords
	opAnswers
	opResolve
)

var opNames = []string{"clusters", "metrics", "records", "answers", "resolve"}

// mix is the shares of the Poisson arrivals (resolves come on their own
// cadence): the degraded-crowd scenario's load.Mix{Records: 10,
// Answers: 5, Clusters: 60, Metrics: 25}.
var mix = []struct {
	kind  opKind
	share float64
}{
	{opClusters, 0.60},
	{opMetrics, 0.25},
	{opRecords, 0.10},
	{opAnswers, 0.05},
}

// mixedOp is one scheduled request.
type mixedOp struct {
	due  time.Duration // since the ladder start
	rung int
	kind opKind
	// batch indexes the write stream for opRecords.
	batch int
	// answers is the body of an opAnswers request.
	answers []answerBody
}

// rungBounds returns each rung's start and the end of the last one.
func rungBounds(seconds int) []time.Duration {
	window := float64(seconds) * float64(time.Second)
	b := []time.Duration{0}
	for i := range ladder {
		b = append(b, time.Duration(window*(refShare+float64(i)*rungShare)))
	}
	return b
}

// schedule draws the whole ladder's arrivals from seed.
func schedule(seed int64, seconds int) (ops []mixedOp, batches int) {
	rng := rand.New(rand.NewSource(seed ^ 0x10ad))
	b := rungBounds(seconds)
	for rung, rate := range ladder {
		for t := b[rung] + resolveEvery/2; t < b[rung+1]; t += resolveEvery {
			ops = append(ops, mixedOp{due: t, rung: rung, kind: opResolve})
		}
		t := b[rung]
		for {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= b[rung+1] {
				break
			}
			op := mixedOp{due: t, rung: rung, kind: pickKind(rng)}
			if op.kind == opRecords {
				op.batch = batches
				batches++
			}
			ops = append(ops, op)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops, batches
}

func pickKind(rng *rand.Rand) opKind {
	x := rng.Float64()
	for _, m := range mix {
		if x < m.share {
			return m.kind
		}
		x -= m.share
	}
	return mix[len(mix)-1].kind
}

// drawAnswers picks client answers over preloaded records: known
// duplicates (fc 1) and one known non-duplicate (fc 0).
func drawAnswers(rng *rand.Rand, preload []streamRecord, byEntity map[int][]int) []answerBody {
	out := make([]answerBody, 0, answersPerPost)
	for len(out) < answersPerPost-1 {
		a := rng.Intn(len(preload))
		mates := byEntity[preload[a].Entity]
		b := mates[rng.Intn(len(mates))]
		if a == b {
			continue
		}
		out = append(out, answerBody{Lo: min(a, b), Hi: max(a, b), FC: 1, Source: "client"})
	}
	for {
		a, b := rng.Intn(len(preload)), rng.Intn(len(preload))
		if preload[a].Entity != preload[b].Entity {
			out = append(out, answerBody{Lo: min(a, b), Hi: max(a, b), FC: 0, Source: "client"})
			return out
		}
	}
}

// mixedInputs is the generated input of one run.
type mixedInputs struct {
	preload []streamRecord
	writes  []streamRecord
	ops     []mixedOp
}

func genMixed(seed int64, seconds int) (mixedInputs, error) {
	ops, batches := schedule(seed, seconds)
	stream, err := genStream(mixedPreload+batches*mixedBatch, seed)
	if err != nil {
		return mixedInputs{}, err
	}
	in := mixedInputs{preload: stream[:mixedPreload], writes: stream[mixedPreload:], ops: ops}
	rng := rand.New(rand.NewSource(seed ^ 0xa115))
	byEntity := map[int][]int{}
	for id, r := range in.preload {
		byEntity[r.Entity] = append(byEntity[r.Entity], id)
	}
	for i := range in.ops {
		if in.ops[i].kind == opAnswers {
			in.ops[i].answers = drawAnswers(rng, in.preload, byEntity)
		}
	}
	return in, nil
}

// writeBatch is the records of write batch b.
func (in mixedInputs) writeBatch(b int) []streamRecord {
	return in.writes[b*mixedBatch : (b+1)*mixedBatch]
}

// preload adds the preload records to g in batchSize batches on one
// goroutine, registers their entities with the crowd, and resolves
// once. Global ids follow arrival order, so preload record i gets id i.
func preload(g *shard.Group, recs []streamRecord, crowd *simCrowd) error {
	for lo := 0; lo < len(recs); lo += batchSize {
		batch := recs[lo:min(lo+batchSize, len(recs))]
		ids, err := g.Add(toRecords(batch)...)
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for i, id := range ids {
			if id != lo+i {
				return fmt.Errorf("preload: record %d got id %d", lo+i, id)
			}
			crowd.register(id, batch[i].Entity)
		}
	}
	if _, err := g.Resolve(context.Background()); err != nil {
		return fmt.Errorf("preload resolve: %w", err)
	}
	return nil
}

func toRecords(batch []streamRecord) []incremental.Record {
	out := make([]incremental.Record, len(batch))
	for i, r := range batch {
		out[i] = incremental.Record{Fields: map[string]string{"text": r.Text}, Entity: entityLabel(r.Entity)}
	}
	return out
}

// mixedSetup is one set-up: inputs, crowd and a preloaded server.
type mixedSetup struct {
	in    mixedInputs
	dir   string
	crowd *simCrowd
	rec   *obs.Recorder
	svc   *service
}

// repSeed is the input seed of repetition rep of a run at seed: each
// repetition draws its own input, so a run's figures average over
// three inputs rather than one (for serve-mixed, three sets of resolve
// windows).
func repSeed(seed int64, rep int) int64 { return seed<<4 | int64(rep) }

func openMixed(seed int64, seconds int, tr *tracer, inflight *inflightResolve) (mixedSetup, error) {
	in, err := genMixed(seed, seconds)
	if err != nil {
		return mixedSetup{}, err
	}
	dir, err := freshDir("mixed")
	if err != nil {
		return mixedSetup{}, err
	}
	crowd := newSimCrowd(seed, tr, inflight)
	rec := obs.New()
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = serverSpans(tr, inflight)
	}
	svc, err := openService(serverConfig(dir, crowd, rec), wrap)
	if err != nil {
		return mixedSetup{}, err
	}
	su := mixedSetup{in: in, dir: dir, crowd: crowd, rec: rec, svc: svc}
	if err := preload(svc.srv.Group(), in.preload, crowd); err != nil {
		su.discard()
		return mixedSetup{}, err
	}
	return su, nil
}

func (s mixedSetup) discard() {
	s.svc.close()
	os.RemoveAll(s.dir)
}

// opResult is one executed request.
type opResult struct {
	kind   opKind
	rung   int
	lat    float64 // ms from due time to response
	late   float64 // ms the generator handed it over after its due time
	ok     bool
	bytes  int
	begins time.Duration // tracer time the client span began
	done   time.Duration // completion, since the ladder start
}

// ladderRun is the outcome of one pass over the schedule.
type ladderRun struct {
	results []opResult
	bounds  []time.Duration
	answers int // answers the server accepted
	sent    int // answers sent
	acked   int // records acked
	// before and after bracket the ladder and the final resolve.
	before obs.Metrics
	after  obs.Metrics
	// crowdWait is the simulated crowd's busy time during the ladder.
	crowdWait time.Duration
	// final is the resolve after the ladder, which brings the clusters
	// up to date with every acked record.
	final storeDedup
	// last is the last rung run: the first to fall behind, or the top.
	last int
}

// runLadder drives the open loop: a generator hands each op to conns
// workers at its due time; a worker times it from the due time, so
// time spent queued behind a slow request counts. Once a request ends
// more than lagLimit after its rung, that rung has fallen behind, and
// the ladder stops: later rungs' requests are neither sent nor counted.
func runLadder(su mixedSetup, o options, conns int, tr *tracer) (ladderRun, error) {
	cl := newClient(su.svc.url, conns)
	defer cl.close()
	ops := su.in.ops
	run := ladderRun{bounds: rungBounds(o.seconds)}
	bodies := make([]recordsReq, len(su.in.writes)/mixedBatch)
	for b := range bodies {
		bodies[b] = recordsBody(su.in.writeBatch(b))
	}
	type job struct {
		op   mixedOp
		late time.Duration
	}
	// Sized to the schedule, so the generator never blocks.
	queue := make(chan job, len(ops))
	results := make(chan opResult, len(ops))
	var answersSent, answersOK, recordsOK atomic.Int64
	var last atomic.Int64
	last.Store(int64(len(ladder) - 1))
	run.before = su.rec.Snapshot()
	wait0 := su.crowd.waitNS.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if j.op.rung > int(last.Load()) {
					continue
				}
				r := opResult{kind: j.op.kind, rung: j.op.rung, late: ms(j.late)}
				if tr != nil {
					r.begins = tr.now()
				}
				var id string
				var err error
				switch j.op.kind {
				case opClusters:
					id, r.bytes, err = cl.call("GET", "/clusters", nil, nil)
				case opMetrics:
					id, r.bytes, err = cl.call("GET", "/metrics", nil, nil)
				case opRecords:
					var resp recordsResp
					id, r.bytes, err = cl.call("POST", "/records", bodies[j.op.batch], &resp)
					if err == nil && len(resp.IDs) != mixedBatch {
						err = fmt.Errorf("records: %d ids for %d records", len(resp.IDs), mixedBatch)
					}
					if err == nil {
						batch := su.in.writeBatch(j.op.batch)
						for i, gid := range resp.IDs {
							su.crowd.register(gid, batch[i].Entity)
						}
						recordsOK.Add(int64(len(resp.IDs)))
					}
				case opAnswers:
					var resp answersResp
					answersSent.Add(int64(len(j.op.answers)))
					id, r.bytes, err = cl.call("POST", "/answers", answersReq{Answers: j.op.answers}, &resp)
					if err == nil {
						answersOK.Add(int64(resp.Accepted))
					}
				case opResolve:
					id, r.bytes, err = cl.call("POST", "/resolve", nil, nil)
				}
				r.done = time.Since(start)
				r.lat = ms(r.done - j.op.due)
				if r.done-run.bounds[j.op.rung+1] > lagLimit {
					lowerTo(&last, int64(j.op.rung))
				}
				r.ok = err == nil
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				}
				if tr != nil {
					tr.add(span{Name: "load/" + opNames[j.op.kind], Req: id, Start: r.begins, End: tr.now(), N: int64(r.bytes)})
				}
				results <- r
			}
		}()
	}
	for _, op := range ops {
		if d := op.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if op.rung > int(last.Load()) {
			break
		}
		queue <- job{op: op, late: time.Since(start) - op.due}
	}
	close(queue)
	wg.Wait()
	close(results)
	for r := range results {
		run.results = append(run.results, r)
	}
	run.crowdWait = time.Duration(su.crowd.waitNS.Load() - wait0)
	run.sent = int(answersSent.Load())
	run.answers = int(answersOK.Load())
	run.acked = int(recordsOK.Load())
	run.last = int(last.Load())
	var err error
	run.final, err = resolveStore(su.svc, su.crowd, su.rec)
	run.after = su.rec.Snapshot()
	return run, err
}

// lowerTo sets a to v if v is lower.
func lowerTo(a *atomic.Int64, v int64) {
	for cur := a.Load(); v < cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// rungStats summarizes one rung of a ladder run.
type rungStats struct {
	lat               [5][]float64 // per op kind, ms from due time
	attempted, failed int
	drain             time.Duration // last completion after the rung's end
	// lag is the larger of records_p90_ms and the drain, in ms.
	lag  float64
	pass bool
}

func rungsOf(run ladderRun) []rungStats {
	rs := make([]rungStats, len(ladder))
	for _, r := range run.results {
		st := &rs[r.rung]
		st.attempted++
		if d := r.done - run.bounds[r.rung+1]; d > st.drain {
			st.drain = d
		}
		if !r.ok {
			st.failed++
			continue
		}
		st.lat[r.kind] = append(st.lat[r.kind], r.lat)
	}
	for i := range rs {
		st := &rs[i]
		if len(st.lat[opRecords]) > 0 {
			st.lag = max(quantile(st.lat[opRecords], 0.9), ms(st.drain))
		}
		st.pass = st.failed == 0 && len(st.lat[opRecords]) > 0 && st.lag < ms(lagLimit)
	}
	return rs
}

// maxRate is the offered rate at which the ladder's lag reaches
// lagLimit, interpolated linearly between the last rung that held its
// rate and the first that did not. A failed request fails its rung
// outright: the ladder then ends at the rung below.
func maxRate(rs []rungStats) float64 {
	rate := 0.0
	for i, st := range rs {
		if st.pass {
			rate = ladder[i]
			continue
		}
		if i > 0 && st.failed == 0 && len(st.lat[opRecords]) > 0 {
			prev := rs[i-1].lag
			rate += (ladder[i] - ladder[i-1]) * (ms(lagLimit) - prev) / (st.lag - prev)
		}
		break
	}
	return rate
}

// evalLadder sets the end-to-end metrics of the repeated ladder runs
// and records, in the informational table, every rung any of them ran.
// Latencies pool the runs' samples; throughput_per_s, the max rate, is
// the median of the runs' rates.
func evalLadder(res *result, runs []ladderRun) {
	pooled := make([]rungStats, len(ladder))
	var rates []float64
	top := 0
	for _, run := range runs {
		rs := rungsOf(run)
		rates = append(rates, maxRate(rs))
		top = max(top, run.last)
		for i, st := range rs {
			for k := range st.lat {
				pooled[i].lat[k] = append(pooled[i].lat[k], st.lat[k]...)
			}
			pooled[i].attempted += st.attempted
			pooled[i].failed += st.failed
		}
	}
	for i, st := range pooled[:top+1] {
		p := fmt.Sprintf("rung%d_%gops.", i, ladder[i])
		res.info(p+"records_p50_ms", quantile(st.lat[opRecords], 0.5), "ms")
		res.info(p+"records_p90_ms", quantile(st.lat[opRecords], 0.9), "ms")
		res.info(p+"clusters_p50_ms", quantile(st.lat[opClusters], 0.5), "ms")
		res.info(p+"clusters_p90_ms", quantile(st.lat[opClusters], 0.9), "ms")
		res.info(p+"resolve_p50_ms", quantile(st.lat[opResolve], 0.5), "ms")
		res.info(p+"records_samples", float64(len(st.lat[opRecords])), "count")
		res.info(p+"failed", float64(st.failed), "count")
		res.Attempted += st.attempted
		res.Failed += st.failed
	}
	ref := pooled[referenceRung]
	// The user-facing read is GET /clusters, 60% of the traffic.
	res.set("latency_p50_ms", quantile(ref.lat[opClusters], 0.5))
	// Shown but not gated: on a 2-vCPU VM these spread past the largest
	// bound BENCHMARK.json may set (see perfbench/README.md).
	res.info("records_p50_ms", quantile(ref.lat[opRecords], 0.5), "ms")
	res.info("records_p90_ms", quantile(ref.lat[opRecords], 0.9), "ms")
	res.info("clusters_p90_ms", quantile(ref.lat[opClusters], 0.9), "ms")
	res.set("dedup_s", quantile(ref.lat[opResolve], 0.5)/1000)
	res.info("resolve_samples", float64(len(ref.lat[opResolve])), "count")
	res.set("throughput_per_s", median(rates))
	res.info("failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
}

// checkMixed verifies every answer was accepted and the final clusters
// partition [0, Records).
func checkMixed(res *result, run ladderRun, preloaded int, crowd *simCrowd) {
	res.check(run.answers == run.sent, "server accepted %d of %d answers", run.answers, run.sent)
	res.check(crowd.missing.Load() == 0, "crowd asked about %d records it never saw acked", crowd.missing.Load())
	checkPartition(res, run.final.clusters, preloaded+run.acked)
}

// resolvesIn counts the resolves of a ladder run that the server
// answered, the final one included.
func resolvesIn(run ladderRun) int {
	n := 1
	for _, r := range run.results {
		if r.kind == opResolve && r.ok {
			n++
		}
	}
	return n
}

// runF1 is the pairwise F1 of a ladder run's final clusters against the
// ground truth of the preloaded and the acked records.
func runF1(run ladderRun, preloaded int, cr *simCrowd) (float64, error) {
	entity, ok := cr.entities(preloaded + run.acked)
	if !ok {
		return 0, fmt.Errorf("final clusters: an acked record's entity was never registered")
	}
	return clustersF1(run.final.clusters, entity)
}

func runServeMixed(o options) (*result, error) {
	conns := runtime.NumCPU()
	res := newResult()
	var runs []ladderRun
	var setups, f1s []float64
	var pairs, iters int64
	var written, resolves int
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		su, err := openMixed(repSeed(o.seed, i), o.seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		run, err := runLadder(su, o, conns, nil)
		su.discard()
		if err != nil {
			return nil, err
		}
		checkMixed(res, run, len(su.in.preload), su.crowd)
		f1, err := runF1(run, len(su.in.preload), su.crowd)
		if err != nil {
			return nil, err
		}
		f1s = append(f1s, f1)
		pairs += counterDelta(run.before, run.after, crowd.MetricQuestionsAnswered)
		iters += counterDelta(run.before, run.after, crowd.MetricIterations)
		written += run.acked
		resolves += resolvesIn(run)
		runs = append(runs, run)
	}
	evalLadder(res, runs)
	res.set("f1", median(f1s))
	// Pooled over the repetitions, like the latencies.
	res.set("crowd_pairs_per_record", float64(pairs)/float64(max(written, 1)))
	res.set("crowd_iterations", float64(iters)/float64(resolves))
	res.set("setup_s", median(setups))
	res.set("peak_rss_mb", peakRSSMB())
	if o.trace {
		if err := traceMixed(o, res, runs[len(runs)-1], conns); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceMixed is the traced invocation's extra work: a traced pass over
// the same ladder on a fresh set-up, then the single-goroutine
// direct-call replay of the same operations. untraced is the last
// untraced repetition, whose inputs the traced pass repeats.
func traceMixed(o options, res *result, untraced ladderRun, conns int) error {
	tr := newTracer()
	inflight := &inflightResolve{}
	seed := repSeed(o.seed, repeats-1)
	su, err := openMixed(seed, o.seconds, tr, inflight)
	if err != nil {
		return err
	}
	tr.reset()
	run, err := runLadder(su, o, conns, tr)
	su.discard()
	if err != nil {
		return err
	}
	spans := tr.all()
	httpLayerMetrics(res, spans, opNames...)
	var kb []float64
	for _, r := range run.results {
		if r.kind == opClusters && r.ok {
			kb = append(kb, float64(r.bytes)/1024)
		}
	}
	res.set("serve.clusters.resp_kb", mean(kb))
	traced := rungsOf(run)[referenceRung].lat[opClusters]
	base := rungsOf(untraced)[referenceRung].lat[opClusters]
	res.set("trace.overhead_frac", median(traced)/median(base)-1)

	// Generator lateness and crowd figures come from the untraced run;
	// the crowd counts are the server's own /metrics counters.
	var late []float64
	for _, r := range untraced.results {
		late = append(late, r.late)
	}
	res.set("load.late_p99_ms", quantile(late, 0.99))
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.set("runtime.gc_cpu_frac", mem.GCCPUFraction)
	nr := float64(resolvesIn(untraced))
	res.set("crowd.wait_ms_per_resolve", ms(untraced.crowdWait+untraced.final.crowdWait)/nr)
	res.set("crowd.iterations_per_resolve", float64(counterDelta(untraced.before, untraced.after, crowd.MetricIterations))/nr)
	res.set("crowd.pairs_per_resolve", float64(counterDelta(untraced.before, untraced.after, crowd.MetricQuestionsAnswered))/nr)
	res.set("journal.checkpoints", float64(counterDelta(untraced.before, untraced.after, incremental.MetricCheckpoints)))

	if err := replayMixed(seed, res, su.in, run.last, tr); err != nil {
		return err
	}
	return tr.writeJSONL(traceFile(o))
}

// replayMixed replays the ladder's operations up to rung last in
// schedule order on one goroutine through a journaled shard.Group over
// the timing tree, so a resolve's crowd and journal spans nest inside
// its shard/Resolve span by containment.
func replayMixed(seed int64, res *result, in mixedInputs, last int, tr *tracer) error {
	dir, err := freshDir("replay")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var parent atomic.Int64
	tree, err := newTraceTree(dir, tr, &parent)
	if err != nil {
		return err
	}
	cr := newSimCrowd(seed, tr, nil)
	rec := obs.New()
	cfg := serverConfig(dir, cr, rec)
	ecfg := incremental.Config{
		Tau: cfg.Tau, TauSet: true, Epsilon: cfg.Epsilon, RefineX: cfg.RefineX, Seed: cfg.Seed,
		CheckpointEvery: cfg.CheckpointEvery, RotateBytes: cfg.RotateBytes, Source: cr, Obs: rec,
	}
	g, err := shard.Open(shard.Config{Shards: serverShards, Engine: ecfg}, tree)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := preload(g, in.preload, cr); err != nil {
		return err
	}
	tree.flush()
	tr.reset()

	traced := func(name string, n int64, f func() error) error {
		id := tr.newID()
		parent.Store(id)
		cr.parent.Store(id)
		s := tr.now()
		err := f()
		e := tr.now()
		parent.Store(0)
		cr.parent.Store(0)
		tr.add(span{ID: id, Name: name, Start: s, End: e, N: n})
		return err
	}
	var addDur []time.Duration
	written, userBytes := 0, 0
	for _, op := range in.ops {
		if op.rung > last {
			break
		}
		var err error
		switch op.kind {
		case opRecords:
			batch := in.writeBatch(op.batch)
			recs := toRecords(batch)
			var ids []int
			s := tr.now()
			err = traced("shard/Add", int64(len(batch)), func() error {
				var err error
				ids, err = g.Add(recs...)
				return err
			})
			addDur = append(addDur, tr.now()-s)
			written += len(recs)
			userBytes += userBytesOf(recs)
			for i, gid := range ids {
				cr.register(gid, batch[i].Entity)
			}
		case opAnswers:
			err = traced("shard/AddAnswer", int64(len(op.answers)), func() error {
				for _, a := range op.answers {
					if err := g.AddAnswer(a.Lo, a.Hi, a.FC, a.Source); err != nil {
						return err
					}
				}
				return nil
			})
		case opClusters:
			err = traced("shard/Snapshot", 0, func() error { g.Snapshot(); return nil })
		case opMetrics:
			err = traced("obs/Snapshot", 0, func() error { rec.Snapshot(); return nil })
		case opResolve:
			err = traced("shard/Resolve", 0, func() error {
				_, err := g.Resolve(context.Background())
				return err
			})
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", opNames[op.kind], err)
		}
	}
	tree.flush()
	spans := tr.all()
	cover := coverByParent(spans, "journal/", "crowd/")
	var total, self []float64
	for _, s := range byName(spans)["shard/Resolve"] {
		total = append(total, ms(s.dur()))
		self = append(self, ms(s.dur()-cover[s.ID]))
	}
	res.set("shard.resolve.ms", mean(total))
	res.set("shard.resolve.self_ms", mean(self))
	if written > 0 {
		res.set("shard.add.us_per_record", float64(totalDur(byName(spans)["shard/Add"]))/float64(time.Microsecond)/float64(written))
		res.set("shard.add.growth", growth(addDur))
		journalLayerMetrics(res, byName(spans), float64(written), userBytes)
	}
	return nil
}
