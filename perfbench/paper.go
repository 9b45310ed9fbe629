package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"acd/internal/cluster"
	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/dataset"
	"acd/internal/experiments"
	"acd/internal/market"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/refine"
)

// Paper-batch workload: the offline ACD pipeline (pruning.Prune, then
// PC-Pivot and PC-Refine) on the three Table 3 datasets with the
// calibrated 3-worker crowd, the same three through the mixed-fleet
// marketplace arm of acdbench -exp market, and one synthetic arm of
// scaleRecords records.
const (
	scaleRecords  = 10000
	scaleEntities = scaleRecords / 10
	// scaleCrowdLike names the Table 3 row whose crowd error rates the
	// synthetic arm's crowd is calibrated to.
	scaleCrowdLike = "Product"
	// goldenPath holds the pinned golden hashes, relative to the
	// checkout root.
	goldenPath = "testdata/golden_determinism.json"
)

// paperInputs is the set-up of one run: every dataset, generated.
type paperInputs struct {
	table3 []*dataset.Dataset
	scale  *dataset.Dataset
}

func genPaper(seed int64) (paperInputs, error) {
	var in paperInputs
	for _, name := range experiments.DatasetNames {
		d, err := dataset.ByName(name, seed)
		if err != nil {
			return in, err
		}
		in.table3 = append(in.table3, d)
	}
	d, err := dataset.Synthetic(dataset.SyntheticConfig{
		Entities: scaleEntities, Records: scaleRecords, SharedVocabulary: scaleRecords / 2, Seed: seed,
	})
	if err != nil {
		return in, err
	}
	in.scale = d
	return in, nil
}

// paperTotals accumulates figures over the arms.
type paperTotals struct {
	dedup                time.Duration
	prune, pivot, refine time.Duration
	pairs, iterations    int
	// minF1 and marketMinF1 are the lowest F1 over the arms; a pass
	// starts them at +Inf, so an arm with F1 0 shows.
	minF1          float64
	candidates     int
	rounds, wasted int
	refineIters    int
	cents          float64
	shortCircuited int
	marketMinF1    float64
	arms           int
	// records counts every arm's records; armDedup is each arm's wall
	// time, its dataset's pruning included.
	records  int
	armDedup []float64
	armNames []string
}

// pipeline is one prepared instance: pruned candidates plus the
// simulated crowd's answer sets, built exactly as
// experiments.NewInstance builds them.
type pipeline struct {
	d        *dataset.Dataset
	prune    time.Duration
	cands    *pruning.Candidates
	answers3 *crowd.AnswerSet
	answers5 *crowd.AnswerSet
}

// prepare prunes d (timed as part of the dedup) and draws the crowd's
// answer sets (the simulated crowd's preparation, not timed), or takes
// them from cache.
func prepare(d *dataset.Dataset, crowdLike string, seed int64, rec *obs.Recorder, tr *tracer, t *paperTotals) *pipeline {
	s := time.Now()
	var ts time.Duration
	if tr != nil {
		ts = tr.now()
	}
	cands := pruning.Prune(d.Records, pruning.Options{})
	el := time.Since(s)
	if tr != nil {
		tr.add(span{Name: "pruning/Prune", Start: ts, End: tr.now(), N: int64(len(cands.Pairs))})
	}
	t.prune += el
	t.dedup += el
	t.candidates += len(cands.Pairs)

	p := &pipeline{d: d, prune: el, cands: cands}
	tgt, _ := dataset.Target(crowdLike)
	mix, _ := crowd.Calibrate(tgt.ErrorRate3W, tgt.ErrorRate5W)
	truth := d.TruthFn()
	diff := crowd.DifficultyAssignment(cands.PairList(), cands.Score, truth, mix)
	p.answers3 = crowd.BuildAnswers(cands.PairList(), truth, diff, crowd.ThreeWorker(seed+101))
	p.answers5 = crowd.BuildAnswers(cands.PairList(), truth, diff, crowd.FiveWorker(seed+102))
	p.answers3.SetRecorder(rec)
	p.answers5.SetRecorder(rec)
	return p
}

// goldenHashes are the four pinned hashes of one run, computed the way
// the repository's golden determinism test computes them.
type goldenHashes struct {
	Pivot   string `json:"pivot"`
	Rounds  string `json:"rounds"`
	Refined string `json:"refined"`
	Stats   string `json:"stats"`
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func hashClustering(c *cluster.Clustering) string {
	var b strings.Builder
	for _, set := range c.Sets() {
		for i, r := range set {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", r)
		}
		b.WriteByte(';')
	}
	return hashString(b.String())
}

func hashRounds(st core.PCStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batches=%d issued=%d wasted=%d|", st.Batches, st.Issued, st.Wasted)
	for _, r := range st.Rounds {
		fmt.Fprintf(&b, "%d,%d,%d;", r.K, r.Issued, r.Wasted)
	}
	return hashString(b.String())
}

func hashStats(s crowd.Stats) string {
	return hashString(fmt.Sprintf("pairs=%d iters=%d hits=%d cents=%d votes=%d",
		s.Pairs, s.Iterations, s.HITs, s.Cents, s.Votes))
}

// runACD runs PC-Pivot then PC-Refine over the 3-worker answers with
// the session the golden test uses (core.ACD's own steps), timing each
// phase, and returns the golden hashes of the run.
func runACD(p *pipeline, seed int64, rec *obs.Recorder, tr *tracer, t *paperTotals) goldenHashes {
	sess := crowd.NewSession(p.answers3)
	sess.SetRecorder(rec)
	rng := rand.New(rand.NewSource(seed))

	s := time.Now()
	var ts time.Duration
	if tr != nil {
		ts = tr.now()
	}
	c, st := core.PCPivot(p.cands, sess, core.DefaultEpsilon, rng)
	pivot := time.Since(s)
	if tr != nil {
		tr.add(span{Name: "core/PCPivot", Start: ts, End: tr.now(), N: int64(st.Issued)})
	}
	h := goldenHashes{Pivot: hashClustering(c), Rounds: hashRounds(st)}
	iters := sess.Stats().Iterations

	s = time.Now()
	if tr != nil {
		ts = tr.now()
	}
	refined := refine.PCRefine(c, p.cands, sess, refine.DefaultX)
	ref := time.Since(s)
	if tr != nil {
		tr.add(span{Name: "refine/PCRefine", Start: ts, End: tr.now()})
	}
	h.Refined = hashClustering(refined)
	stats := sess.Stats()
	h.Stats = hashStats(stats)

	t.pivot += pivot
	t.refine += ref
	t.dedup += pivot + ref
	t.records += len(p.d.Records)
	t.armDedup = append(t.armDedup, (p.prune + pivot + ref).Seconds())
	t.armNames = append(t.armNames, p.d.Name+"/3w")
	t.rounds += st.Batches
	t.wasted += st.Wasted
	t.refineIters += stats.Iterations - iters
	t.pairs += stats.Pairs
	t.iterations += stats.Iterations
	t.arms++
	f1 := cluster.Evaluate(refined, p.d.Truth()).F1
	t.minF1 = min(t.minF1, f1)
	return h
}

// runMarket runs the full pipeline through the mixed-fleet marketplace
// arm acdbench -exp market uses: the 3-worker answers as the cheap fast
// backend, the 5-worker answers as the careful one, plus the free
// machine classifier, confidence-ordered HITs and transitive
// short-circuiting.
func runMarket(p *pipeline, rec *obs.Recorder, tr *tracer, t *paperTotals) {
	truthFn := p.d.TruthFn()
	wrong := 0
	for _, sp := range p.cands.Pairs {
		if (p.cands.Score(sp.Pair) > 0.5) != truthFn(sp.Pair) {
			wrong++
		}
	}
	machineErr := float64(wrong) / float64(max(len(p.cands.Pairs), 1))
	m := market.New(market.Config{
		Backends: []market.Backend{
			{ID: "fast", Source: p.answers3, CentsPerHIT: 1, PairsPerHIT: 20, ErrorRate: p.answers3.ErrorRate(), Workers: 3},
			{ID: "careful", Source: p.answers5, CentsPerHIT: 6, PairsPerHIT: 10, ErrorRate: p.answers5.ErrorRate(), Workers: 5, Latency: 2 * time.Millisecond},
			{ID: "machine", Machine: true, ErrorRate: machineErr},
		},
		BudgetCents:  market.Unlimited,
		Order:        market.OrderConfidence,
		ShortCircuit: true,
		Prior:        p.cands.Score,
		Seed:         1,
	})
	m.SetRecorder(rec)
	s := time.Now()
	var ts time.Duration
	if tr != nil {
		ts = tr.now()
	}
	out := core.ACD(p.cands, m, core.Config{Seed: 1, Obs: rec})
	el := time.Since(s)
	if tr != nil {
		tr.add(span{Name: "market/ACD", Start: ts, End: tr.now(), N: int64(out.Stats.Pairs)})
	}
	t.dedup += el
	t.records += len(p.d.Records)
	t.armDedup = append(t.armDedup, (p.prune + el).Seconds())
	t.armNames = append(t.armNames, p.d.Name+"/market")
	t.pairs += out.Stats.Pairs
	t.iterations += out.Stats.Iterations
	t.cents += float64(out.Stats.Cents)
	for _, ch := range m.Ledger() {
		if ch.Backend == market.ChargeInferred {
			t.shortCircuited++
		}
	}
	f1 := cluster.Evaluate(out.Clusters, p.d.Truth()).F1
	t.minF1 = min(t.minF1, f1)
	t.marketMinF1 = min(t.marketMinF1, f1)
	t.arms++
}

// paperPass runs every arm once over in and returns the totals; the
// 3-worker arms' golden hashes are keyed like the golden file.
func paperPass(in paperInputs, seed int64, rec *obs.Recorder, tr *tracer) (paperTotals, map[string]goldenHashes) {
	t := paperTotals{minF1: math.Inf(1), marketMinF1: math.Inf(1)}
	hashes := map[string]goldenHashes{}
	for _, d := range in.table3 {
		p := prepare(d, d.Name, seed, rec, tr, &t)
		hashes[fmt.Sprintf("%s/seed%d/3w", d.Name, seed)] = runACD(p, seed, rec, tr, &t)
		runMarket(p, rec, tr, &t)
	}
	p := prepare(in.scale, scaleCrowdLike, seed, rec, tr, &t)
	runACD(p, seed, rec, tr, &t)
	return t, hashes
}

// checkGolden compares the 3-worker pipeline at seeds 1 and 2 with the
// pinned golden hashes, reusing this run's hashes where it ran them.
func checkGolden(res *result, have map[string]goldenHashes) {
	raw, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		res.check(false, "reading goldens: %v", err)
		return
	}
	var golden map[string]goldenHashes
	if err := json.Unmarshal(raw, &golden); err != nil {
		res.check(false, "parsing goldens: %v", err)
		return
	}
	for _, gs := range []int64{1, 2} {
		for _, name := range experiments.DatasetNames {
			key := fmt.Sprintf("%s/seed%d/3w", name, gs)
			got, ok := have[key]
			if !ok {
				in := experiments.MustInstance(name, gs)
				var t paperTotals
				p := &pipeline{d: in.Data, cands: in.Cands, answers3: in.Answers(3)}
				got = runACD(p, gs, nil, nil, &t)
			}
			want := golden[key]
			res.check(got.Refined == want.Refined, "%s: refined clustering hash differs from the golden", key)
			res.check(got.Stats == want.Stats, "%s: crowd accounting hash differs from the golden", key)
			res.check(got.Pivot == want.Pivot && got.Rounds == want.Rounds, "%s: PC-Pivot hashes differ from the golden", key)
		}
	}
}

// runPaperBatch runs the pipeline on a fresh input per repetition, so
// each figure is the mean over three inputs: the crowd's cost and F1
// depend on the input as much as the times do.
func runPaperBatch(o options) (*result, error) {
	var setups []float64
	var reps []*result
	hashes := map[string]goldenHashes{}
	var last paperInputs
	var lastSeed int64
	var lastT paperTotals
	for i := 0; i < repeats; i++ {
		seed := repSeed(o.seed, i)
		runtime.GC()
		t0 := time.Now()
		in, err := genPaper(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rec := obs.New()
		t, h := paperPass(in, seed, rec, nil)
		r := newResult()
		setPaperMetrics(r, t)
		r.Attempted = t.arms
		m := rec.Snapshot()
		asked, invoked := m.Counters[crowd.MetricQuestionsAnswered], m.Counters[crowd.MetricOracleInvocations]
		r.check(asked == invoked && asked > 0,
			"crowd/questions_answered %d != crowd/oracle_invocations %d", asked, invoked)
		for k, v := range h {
			hashes[k] = v
		}
		reps = append(reps, r)
		last, lastSeed, lastT = in, seed, t
	}
	res := mergeReps(reps, mean)
	res.set("setup_s", median(setups))
	checkGolden(res, hashes)
	res.set("peak_rss_mb", peakRSSMB())

	if o.trace {
		tr := newTracer()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t, _ := paperPass(last, lastSeed, obs.New(), tr)
		runtime.ReadMemStats(&m1)
		res.check(t.pairs == lastT.pairs && t.iterations == lastT.iterations && t.minF1 == lastT.minF1,
			"the traced pass differs from the untraced pass over the same input")
		res.set("trace.overhead_frac", t.dedup.Seconds()/lastT.dedup.Seconds()-1)
		res.set("runtime.gc_cpu_frac", m1.GCCPUFraction)
		res.set("runtime.alloc_mb_per_1k_records", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(t.records)*1000)
		if err := tr.writeJSONL(traceFile(o)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func setPaperMetrics(res *result, t paperTotals) {
	res.set("dedup_s", t.dedup.Seconds())
	res.set("throughput_per_s", float64(t.records)/t.dedup.Seconds())
	res.set("latency_p50_ms", median(t.armDedup)*1000)
	for i, name := range t.armNames {
		res.info("arm."+name+".dedup_ms", t.armDedup[i]*1000, "ms")
	}
	res.set("crowd_pairs_per_record", float64(t.pairs)/float64(t.records))
	res.set("crowd_iterations", float64(t.iterations)/float64(t.arms))
	res.set("f1", t.minF1)
	res.set("pruning.prune_s", t.prune.Seconds())
	res.set("pruning.candidates", float64(t.candidates))
	res.set("core.pcpivot_s", t.pivot.Seconds())
	res.set("core.rounds", float64(t.rounds))
	res.set("core.wasted_pairs", float64(t.wasted))
	res.set("refine.pcrefine_s", t.refine.Seconds())
	res.set("refine.batches", float64(t.refineIters))
	res.set("market.cents", t.cents)
	res.set("market.short_circuited", float64(t.shortCircuited))
	res.set("market.f1", t.marketMinF1)
}
