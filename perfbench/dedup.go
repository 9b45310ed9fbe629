package main

import (
	"fmt"
	"time"

	"acd/internal/cluster"
	"acd/internal/crowd"
	"acd/internal/obs"
	"acd/internal/record"
)

// storeDedup is one POST /resolve over a served store, what the crowd
// did during it, and the clusters read back after it.
type storeDedup struct {
	elapsed    time.Duration
	pairs      int64 // crowd/questions_answered during the resolve
	iterations int64 // crowd/iterations during the resolve
	crowdWait  time.Duration
	clusters   clustersResp
}

// resolveStore brings the store's clusters up to date with one POST
// /resolve, timed from send to response, then reads GET /clusters.
func resolveStore(svc *service, cr *simCrowd, rec *obs.Recorder) (storeDedup, error) {
	cl := newClient(svc.url, 1)
	defer cl.close()
	var d storeDedup
	before := rec.Snapshot()
	wait0 := cr.waitNS.Load()
	t0 := time.Now()
	if _, _, err := cl.call("POST", "/resolve", nil, nil); err != nil {
		return d, err
	}
	d.elapsed = time.Since(t0)
	after := rec.Snapshot()
	d.pairs = counterDelta(before, after, crowd.MetricQuestionsAnswered)
	d.iterations = counterDelta(before, after, crowd.MetricIterations)
	d.crowdWait = time.Duration(cr.waitNS.Load() - wait0)
	_, _, err := cl.call("GET", "/clusters", nil, &d.clusters)
	return d, err
}

// checkPartition verifies the clusters partition [0, want).
func checkPartition(res *result, c clustersResp, want int) {
	res.check(c.Records == want, "final snapshot holds %d records, acked %d", c.Records, want)
	seen := make([]bool, want)
	count := 0
	for _, cl := range c.Clusters {
		for _, id := range cl {
			if id < 0 || id >= want || seen[id] {
				res.check(false, "final clusters are not a partition of [0, %d): id %d", want, id)
				return
			}
			seen[id] = true
			count++
		}
	}
	res.check(count == want, "final clusters cover %d of %d records", count, want)
}

// clustersF1 is the pairwise F1 of the served clusters against the
// ground-truth entity of every global id.
func clustersF1(c clustersResp, entity []int) (float64, error) {
	sets := make([][]record.ID, len(c.Clusters))
	for i, cl := range c.Clusters {
		sets[i] = make([]record.ID, len(cl))
		for j, id := range cl {
			sets[i][j] = record.ID(id)
		}
	}
	clu, err := cluster.FromSets(len(entity), sets)
	if err != nil {
		return 0, fmt.Errorf("clusters: %w", err)
	}
	return cluster.Evaluate(clu, entity).F1, nil
}
