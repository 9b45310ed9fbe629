package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acd/internal/blocking"
	"acd/internal/incremental"
	"acd/internal/journal"
	"acd/internal/obs"
	"acd/internal/record"
	"acd/internal/shard"
)

// Ingest workload: a closed loop of nproc clients POSTs the stream in
// batchSize-record batches into a fresh journaled store until it holds
// ingestRecords records. No reads, no resolves. The store is then
// closed without a checkpoint and reopened, and one POST /resolve
// deduplicates what it recovered.
const (
	ingestRecords = 4000
	batchSize     = 8
)

// ingestRun is what one HTTP pass of the ingest loop observed.
type ingestRun struct {
	elapsed   time.Duration
	latencies []float64 // ms per POST /records, in completion order
	ids       [][]int   // per batch: the ids the server acked
	pending   []int     // per batch: pending_pairs in the response
	failed    int
	before    obs.Metrics
	after     obs.Metrics
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
	// final is the resolve of the reopened store.
	final storeDedup
}

// ingestSetup is one set-up: the generated stream and a fresh server.
type ingestSetup struct {
	stream []streamRecord
	dir    string
	svc    *service
	rec    *obs.Recorder
}

func openIngest(seed int64, tr *tracer) (ingestSetup, error) {
	stream, err := genStream(ingestRecords, seed)
	if err != nil {
		return ingestSetup{}, err
	}
	dir, err := freshDir("ingest")
	if err != nil {
		return ingestSetup{}, err
	}
	rec := obs.New()
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = serverSpans(tr, nil)
	}
	svc, err := openService(serverConfig(dir, nil, rec), wrap)
	if err != nil {
		return ingestSetup{}, err
	}
	return ingestSetup{stream: stream, dir: dir, svc: svc, rec: rec}, nil
}

// postIngest runs the closed loop: conns clients, each sending the next
// unsent batch as soon as its previous one returns.
func postIngest(su ingestSetup, conns int, tr *tracer) ingestRun {
	cl := newClient(su.svc.url, conns)
	defer cl.close()
	nb := len(su.stream) / batchSize
	run := ingestRun{ids: make([][]int, nb), pending: make([]int, nb), latencies: make([]float64, 0, nb)}
	bodies := make([]recordsReq, nb)
	for b := range bodies {
		bodies[b] = recordsBody(su.stream[b*batchSize : (b+1)*batchSize])
	}
	run.before = su.rec.Snapshot()
	runtime.ReadMemStats(&run.memBefore)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1) - 1)
				if b >= nb {
					return
				}
				var resp recordsResp
				var cs time.Duration
				if tr != nil {
					cs = tr.now()
				}
				t0 := time.Now()
				id, _, err := cl.call("POST", "/records", bodies[b], &resp)
				lat := time.Since(t0)
				if tr != nil {
					tr.add(span{Name: "load/records", Req: id, Start: cs, End: tr.now(), N: batchSize})
				}
				mu.Lock()
				if err != nil || len(resp.IDs) != batchSize {
					run.failed++
				} else {
					run.ids[b] = resp.IDs
					run.pending[b] = resp.PendingPairs
				}
				run.latencies = append(run.latencies, ms(lat))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	runtime.ReadMemStats(&run.memAfter)
	run.after = su.rec.Snapshot()
	return run
}

// checkIngest verifies the acked ids are dense and unique, and that
// candidate density stayed flat; it returns the acked id -> batch
// position map.
func checkIngest(res *result, run ingestRun, n int) map[int]int {
	pos := make(map[int]int, n)
	for b, ids := range run.ids {
		for i, id := range ids {
			if _, dup := pos[id]; dup {
				res.check(false, "id %d acked twice", id)
			}
			pos[id] = b*batchSize + i
		}
	}
	acked := len(pos)
	res.check(acked == n, "acked %d records, want %d", acked, n)
	for id := 0; id < acked; id++ {
		if _, ok := pos[id]; !ok {
			res.check(false, "acked ids not dense: %d missing below %d", id, acked)
			break
		}
	}
	first, last := densityTenths(run, n)
	res.check(first > 0 && last/first < 2 && last/first > 0.5,
		"candidate density not flat: %.2f pairs/record in the first tenth, %.2f in the last", first, last)
	return pos
}

// densityTenths returns the candidate pairs each new record brought in
// the first and the last tenth of the store, from the pending-pair
// counts in the POST responses (no resolve runs, so pending pairs are
// every candidate so far).
func densityTenths(run ingestRun, n int) (first, last float64) {
	type pt struct{ records, pending int }
	var pts []pt
	for b, ids := range run.ids {
		if len(ids) == 0 {
			continue
		}
		top := 0
		for _, id := range ids {
			top = max(top, id+1)
		}
		pts = append(pts, pt{top, run.pending[b]})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].records < pts[j].records })
	at := func(records int) float64 {
		// pending count at the latest response covering ≤ records
		v := 0
		for _, p := range pts {
			if p.records > records {
				break
			}
			v = max(v, p.pending)
		}
		return float64(v)
	}
	tenth := n / 10
	first = at(tenth) / float64(tenth)
	last = (at(n) - at(n-tenth)) / float64(tenth)
	return first, last
}

// verifyRecovered reads the shard journal directly (newest checkpoint
// plus the WAL after it) and checks it holds exactly the acked records,
// each with the text and entity sent.
func verifyRecovered(res *result, dir string, stream []streamRecord, pos map[int]int) {
	fs, err := journal.DirTree{Dir: dir}.Sub(journal.ShardDirName(0))
	if err != nil {
		res.check(false, "open shard journal: %v", err)
		return
	}
	st, rec, err := journal.Open(fs)
	if err != nil {
		res.check(false, "read shard journal: %v", err)
		return
	}
	defer st.Close()
	var recs []journal.RecordData
	if rec.Checkpoint != nil {
		recs = append(recs, rec.Checkpoint.Records...)
	}
	for _, ev := range rec.Events {
		if ev.Type == journal.EventRecordAdded {
			recs = append(recs, *ev.Record)
		}
	}
	res.check(len(recs) == len(pos), "journal holds %d records, acked %d", len(recs), len(pos))
	for _, r := range recs {
		p, ok := pos[r.GID]
		if !ok {
			res.check(false, "journaled record gid %d was never acked", r.GID)
			return
		}
		want := stream[p]
		if r.Fields["text"] != want.Text || r.Entity != entityLabel(want.Entity) {
			res.check(false, "journaled record gid %d differs from the one sent", r.GID)
			return
		}
	}
}

// ingestSetups is how many set-ups runIngest times for setup_s. One
// takes about 20 ms and spreads by a third between runs, so after the
// repetitions it sets up and discards more stores than they needed.
const ingestSetups = 15

func runIngest(o options) (*result, error) {
	conns := runtime.NumCPU()
	var reps []*result
	var setups, pooled, iters []float64
	var last ingestRun
	var pairs, acked int64
	for i := 0; i < repeats; i++ {
		runtime.GC()
		t0 := time.Now()
		su, err := openIngest(repSeed(o.seed, i), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r, run, err := ingestOnce(su, conns, o.seed)
		os.RemoveAll(su.dir)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		pooled = append(pooled, run.latencies...)
		iters = append(iters, float64(run.final.iterations))
		pairs += run.final.pairs
		acked += int64(run.final.clusters.Records)
		last = run
	}
	res := mergeMedian(reps)
	// Each repetition draws its own stream, so these pool the three
	// inputs rather than take the median of them.
	res.set("latency_p50_ms", quantile(pooled, 0.50))
	res.set("crowd_iterations", mean(iters))
	res.set("crowd_pairs_per_record", float64(pairs)/float64(acked))
	// p99 over every repetition's requests, so ten samples lie beyond
	// it. Shown but not gated (see perfbench/README.md).
	res.info("records_p99_ms", quantile(pooled, 0.99), "ms")
	res.info("records_samples", float64(len(pooled)), "count")
	// Read before the extra set-ups, whose garbage would otherwise
	// raise the peak on some runs and not others.
	res.set("peak_rss_mb", peakRSSMB())
	for i := repeats; i < ingestSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		su, err := openIngest(repSeed(o.seed, i), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		err = su.svc.close()
		os.RemoveAll(su.dir)
		if err != nil {
			return nil, err
		}
	}
	res.set("setup_s", median(setups))
	if o.trace {
		if err := traceIngest(o, res, last, conns); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ingestOnce runs one repetition on a fresh set-up: the closed loop,
// then an abort (close without a checkpoint), a timed reopen and a
// resolve of the recovered store, then the checks.
func ingestOnce(su ingestSetup, conns int, seed int64) (*result, ingestRun, error) {
	res := newResult()
	run := postIngest(su, conns, nil)
	n := len(su.stream)
	res.Attempted, res.Failed = len(run.latencies), run.failed
	acked := 0
	for _, ids := range run.ids {
		acked += len(ids)
	}
	res.set("throughput_per_s", float64(acked)/run.elapsed.Seconds())
	res.set("latency_p50_ms", quantile(run.latencies, 0.50))
	res.info("failed_frac", float64(run.failed)/float64(max(len(run.latencies), 1)), "ratio")
	pos := checkIngest(res, run, n)

	if err := su.svc.close(); err != nil {
		res.check(false, "close after ingest: %v", err)
	}
	cr := newSimCrowd(seed, nil, nil)
	entity := make([]int, acked)
	for gid, p := range pos {
		cr.register(gid, su.stream[p].Entity)
		entity[gid] = su.stream[p].Entity
	}
	rec := obs.New()
	t0 := time.Now()
	svc, err := openService(serverConfig(su.dir, cr, rec), nil)
	if err != nil {
		return nil, run, fmt.Errorf("reopen: %w", err)
	}
	res.set("journal.recover_s", time.Since(t0).Seconds())
	res.check(svc.srv.Recovered.Records == acked, "reopen recovered %d records, acked %d", svc.srv.Recovered.Records, acked)
	run.final, err = resolveStore(svc, cr, rec)
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, run, fmt.Errorf("resolve after reopen: %w", err)
	}
	res.set("dedup_s", run.final.elapsed.Seconds())
	res.set("crowd_pairs_per_record", float64(run.final.pairs)/float64(max(acked, 1)))
	res.set("crowd_iterations", float64(run.final.iterations))
	checkPartition(res, run.final.clusters, acked)
	res.check(cr.missing.Load() == 0, "crowd asked about %d records it never saw acked", cr.missing.Load())
	f1, err := clustersF1(run.final.clusters, entity)
	if err != nil {
		return nil, run, err
	}
	res.set("f1", f1)
	verifyRecovered(res, su.dir, su.stream, pos)
	return res, run, nil
}

// traceIngest is the traced invocation's extra work: a traced HTTP pass
// over a fresh store, then the single-goroutine direct-call replay.
// run is the untraced pass, the base for trace.overhead_frac.
func traceIngest(o options, res *result, untraced ingestRun, conns int) error {
	tr := newTracer()
	su, err := openIngest(repSeed(o.seed, repeats-1), tr)
	if err != nil {
		return err
	}
	defer os.RemoveAll(su.dir)
	tr.reset()
	run := postIngest(su, conns, tr)
	if err := su.svc.close(); err != nil {
		return err
	}
	n := len(su.stream)
	res.set("trace.overhead_frac", run.elapsed.Seconds()/untraced.elapsed.Seconds()-1)
	spans := tr.all()
	httpLayerMetrics(res, spans, "records")

	// Runtime figures come from the untraced passes: the GC's share of
	// CPU since the process started, and allocation over the last pass.
	res.set("runtime.gc_cpu_frac", untraced.memAfter.GCCPUFraction)
	alloc := float64(untraced.memAfter.TotalAlloc-untraced.memBefore.TotalAlloc) / (1 << 20)
	res.set("runtime.alloc_mb_per_1k_records", alloc/float64(n)*1000)
	res.set("journal.checkpoints", float64(counterDelta(untraced.before, untraced.after, incremental.MetricCheckpoints)))
	res.set("crowd.wait_ms_per_resolve", ms(untraced.final.crowdWait))
	res.set("crowd.iterations_per_resolve", float64(untraced.final.iterations))
	res.set("crowd.pairs_per_resolve", float64(untraced.final.pairs))

	if err := replayIngest(o, res, su.stream, tr); err != nil {
		return err
	}
	return tr.writeJSONL(traceFile(o))
}

// replayIngest replays the stream's batches on one goroutine through
// a journaled shard.Group over the timing tree, a volatile
// incremental.Engine and a bare blocking.IncrementalIndex, so each
// layer's cost per batch is measured at the same store size.
func replayIngest(o options, res *result, stream []streamRecord, tr *tracer) error {
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
	cfg := serverConfig(dir, nil, nil)
	ecfg := incremental.Config{
		Tau: cfg.Tau, TauSet: true, Epsilon: cfg.Epsilon, RefineX: cfg.RefineX, Seed: cfg.Seed,
		CheckpointEvery: cfg.CheckpointEvery, RotateBytes: cfg.RotateBytes,
	}
	g, err := shard.Open(shard.Config{Shards: serverShards, Engine: ecfg}, tree)
	if err != nil {
		return err
	}
	eng := incremental.New(incremental.Config{Tau: cfg.Tau, TauSet: true})
	ix := blocking.NewIncrementalIndex(cfg.Tau)
	tr.reset()

	nb := len(stream) / batchSize
	userBytes := 0
	cands := 0
	addIDs := make([]int64, nb)
	engDur := make([]time.Duration, nb)
	shardDur := make([]time.Duration, nb)
	for b := 0; b < nb; b++ {
		batch := stream[b*batchSize : (b+1)*batchSize]
		recs := toRecords(batch)
		texts := make([]string, len(batch))
		for i := range batch {
			texts[i] = record.New(0, recs[i].Fields).Text()
		}
		userBytes += userBytesOf(recs)
		id := tr.newID()
		parent.Store(id)
		s := tr.now()
		ids, err := g.Add(recs...)
		e := tr.now()
		parent.Store(0)
		tr.add(span{ID: id, Name: "shard/Add", Start: s, End: e, N: int64(len(recs))})
		if err != nil || len(ids) != len(recs) {
			return fmt.Errorf("replay add: %v", err)
		}
		addIDs[b], shardDur[b] = id, e-s

		s = tr.now()
		if _, err := eng.Add(recs...); err != nil {
			return err
		}
		e = tr.now()
		tr.add(span{Name: "incremental/Add", Start: s, End: e, N: int64(len(recs))})
		engDur[b] = e - s

		s = tr.now()
		for _, t := range texts {
			cands += len(ix.Add(t))
		}
		tr.add(span{Name: "blocking/Add", Start: s, End: tr.now(), N: int64(len(texts))})
	}
	tree.flush()
	if err := g.Close(); err != nil {
		return err
	}

	spans := tr.all()
	named := byName(spans)
	n := float64(nb * batchSize)
	journalCover := coverByParent(spans, "journal/")
	var self time.Duration
	for b := 0; b < nb; b++ {
		self += shardDur[b] - journalCover[addIDs[b]] - engDur[b]
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	res.set("shard.add.us_per_record", us(totalDur(named["shard/Add"]))/n)
	res.set("shard.add.self_us_per_record", us(self)/n)
	res.set("shard.add.growth", growth(shardDur))
	res.set("incremental.add.us_per_record", us(totalDur(named["incremental/Add"]))/n)
	res.set("incremental.add.growth", growth(engDur))
	res.set("blocking.add.us_per_record", us(totalDur(named["blocking/Add"]))/n)
	res.set("blocking.candidates_per_record", float64(cands)/n)

	journalLayerMetrics(res, named, n, userBytes)
	return nil
}

// journalLayerMetrics derives the journal figures of a replay from the
// timing tree's spans: n records added, userBytes their JSON size.
func journalLayerMetrics(res *result, named map[string][]span, n float64, userBytes int) {
	walSyncs := named["journal/SyncWAL"]
	syncs := len(walSyncs) + len(named["journal/SyncCheckpoint"]) + len(named["journal/SyncDir"])
	res.set("journal.fsyncs_per_record", float64(syncs)/n)
	syncMS := make([]float64, len(walSyncs))
	for i, s := range walSyncs {
		syncMS[i] = ms(s.dur())
	}
	res.set("journal.fsync_ms_p50", quantile(syncMS, 0.5))
	res.set("journal.fsync_ms_p99", quantile(syncMS, 0.99))
	var ckptMS []float64
	for _, s := range named["journal/Checkpoint"] {
		ckptMS = append(ckptMS, ms(s.dur()))
	}
	res.set("journal.checkpoint_ms", mean(ckptMS))
	if len(ckptMS) > 0 {
		res.info("journal.checkpoint_ms_last", ckptMS[len(ckptMS)-1], "ms")
	}
	written := int64(0)
	for _, s := range append(named["journal/WriteWAL"], named["journal/WriteCheckpoint"]...) {
		written += s.N
	}
	res.set("journal.bytes_per_user_byte", float64(written)/float64(userBytes))
}

// userBytesOf is the JSON size of records as a client sends them.
func userBytesOf(recs []incremental.Record) int {
	n := 0
	for _, r := range recs {
		raw, _ := json.Marshal(recordBody{Fields: r.Fields, Entity: r.Entity})
		n += len(raw)
	}
	return n
}

// growth is the mean of the last tenth of per-batch costs over the
// mean of the first tenth.
func growth(d []time.Duration) float64 {
	k := max(len(d)/10, 1)
	var first, last time.Duration
	for i := 0; i < k; i++ {
		first += d[i]
		last += d[len(d)-1-i]
	}
	return float64(last) / float64(first)
}

// coverByParent returns, per parent span id, how much of the parent's
// time its child spans whose names start with one of prefixes cover
// (the union of their intervals, so nested children count once).
func coverByParent(spans []span, prefixes ...string) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		for _, p := range prefixes {
			if s.Parent != 0 && strings.HasPrefix(s.Name, p) {
				kids[s.Parent] = append(kids[s.Parent], s)
				break
			}
		}
	}
	out := make(map[int64]time.Duration, len(kids))
	for p, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var total, curS, curE time.Duration
		open := false
		for _, k := range ks {
			if !open || k.Start > curE {
				if open {
					total += curE - curS
				}
				curS, curE, open = k.Start, k.End, true
			} else if k.End > curE {
				curE = k.End
			}
		}
		if open {
			total += curE - curS
		}
		out[p] = total
	}
	return out
}

// counterDelta is a /metrics counter's change over a window.
func counterDelta(before, after obs.Metrics, name string) int64 {
	return after.Counters[name] - before.Counters[name]
}

// freshDir makes an empty scratch directory under the checkout's
// .bench_build for one store.
func freshDir(kind string) (string, error) {
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, kind+"-")
}
