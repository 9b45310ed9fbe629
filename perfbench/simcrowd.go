package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"acd/internal/crowd"
	"acd/internal/record"
)

// Simulated crowd settings: three workers per pair, each wrong with
// probability crowdWorkerError, and one fixed round trip per crowd
// iteration (a BatchSource call), however many pairs it carries. The
// round trip is the median HIT round trip of the careful backend in
// acdbench -exp market (internal/experiments/market.go).
const (
	crowdWorkers     = 3
	crowdWorkerError = 0.05
	crowdRTT         = 2 * time.Millisecond
)

// simCrowd is the benchmark's crowd: it answers each pair from the two
// records' ground-truth entities, with seeded per-worker errors, and
// sleeps crowdRTT once per batch. It implements crowd.BatchSource, so
// the session pays the round trip once per iteration.
//
// Entities are registered by global id as the client learns the ids
// the server assigned. A resolve can reach a record whose POST
// response is still on its way to the client; answer then waits for
// the registration.
type simCrowd struct {
	seed int64

	mu     sync.Mutex
	cond   *sync.Cond
	entity []int // gid -> entity, -1 = not yet registered

	tr       *tracer
	inflight *inflightResolve
	// parent overrides inflight for the single-goroutine replay.
	parent atomic.Int64

	waitNS  atomic.Int64 // time spent answering, round trips included
	missing atomic.Int64 // pairs whose entity never arrived
}

func newSimCrowd(seed int64, tr *tracer, inflight *inflightResolve) *simCrowd {
	c := &simCrowd{seed: seed, tr: tr, inflight: inflight}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// register records the entity of global id gid.
func (c *simCrowd) register(gid, entity int) {
	c.mu.Lock()
	for len(c.entity) <= gid {
		c.entity = append(c.entity, -1)
	}
	c.entity[gid] = entity
	c.mu.Unlock()
	c.cond.Broadcast()
}

// entities returns the entity of every global id below n; ok is false
// if one of them was never registered.
func (c *simCrowd) entities(n int) (out []int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entity) < n {
		return nil, false
	}
	out = append(out, c.entity[:n]...)
	for _, e := range out {
		if e < 0 {
			return nil, false
		}
	}
	return out, true
}

// entityOf returns gid's entity, waiting up to a deadline for a
// registration still in flight.
func (c *simCrowd) entityOf(gid int) (int, bool) {
	deadline := time.Now().Add(10 * time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for gid >= len(c.entity) || c.entity[gid] < 0 {
		if time.Now().After(deadline) {
			return 0, false
		}
		// Wake periodically to notice the deadline.
		t := time.AfterFunc(50*time.Millisecond, c.cond.Broadcast)
		c.cond.Wait()
		t.Stop()
	}
	return c.entity[gid], true
}

// answer is the crowd score of p: the share of crowdWorkers seeded
// votes saying "duplicate".
func (c *simCrowd) answer(p record.Pair) float64 {
	el, ok1 := c.entityOf(int(p.Lo))
	eh, ok2 := c.entityOf(int(p.Hi))
	if !ok1 || !ok2 {
		c.missing.Add(1)
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d", c.seed, p.Lo, p.Hi)
	x := h.Sum64()
	yes := 0
	for w := 0; w < crowdWorkers; w++ {
		x = x*6364136223846793005 + 1442695040888963407
		wrong := float64(x>>11)/float64(1<<53) < crowdWorkerError
		if (el == eh) != wrong {
			yes++
		}
	}
	return float64(yes) / crowdWorkers
}

// Score implements crowd.Source (one pair, one round trip).
func (c *simCrowd) Score(p record.Pair) float64 {
	return c.ScoreBatch([]record.Pair{p})[0]
}

// ScoreBatch implements crowd.BatchSource: one crowd iteration.
func (c *simCrowd) ScoreBatch(pairs []record.Pair) []float64 {
	start := time.Now()
	var ts time.Duration
	if c.tr != nil {
		ts = c.tr.now()
	}
	time.Sleep(crowdRTT)
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = c.answer(p)
	}
	c.waitNS.Add(int64(time.Since(start)))
	if c.tr != nil {
		parent := c.parent.Load()
		if parent == 0 {
			parent = c.inflight.get()
		}
		c.tr.add(span{Name: "crowd/ScoreBatch", Parent: parent, Start: ts, End: c.tr.now(), N: int64(len(pairs))})
	}
	return out
}

// Config implements crowd.Source.
func (c *simCrowd) Config() crowd.Config { return crowd.ThreeWorker(c.seed) }
