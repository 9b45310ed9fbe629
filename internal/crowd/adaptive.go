package crowd

import (
	"fmt"
	"math/rand"

	"acd/internal/record"
)

// This file implements the paper's stated future work (Section 8):
// "adaptively assigning more crowd workers to more difficult record
// pairs". The adaptive scheme first collects a small base vote on each
// pair; when the vote is narrow (the margin between yes and no votes is
// at most one), the pair is treated as difficult and escalated to a
// larger panel. Easy pairs therefore cost the base number of votes while
// the extra spending concentrates exactly where majority votes are most
// likely to flip.

// BuildAdaptiveAnswers simulates adaptive worker allocation: every pair
// receives cfg.Workers votes; pairs whose margin is ≤ 1 are escalated to
// maxWorkers votes (maxWorkers must be odd and ≥ cfg.Workers). The
// returned AnswerSet records each pair's final score and vote count;
// Session accounting picks the vote counts up through the answer set's
// AnswerBatch bills.
func BuildAdaptiveAnswers(pairs []record.Pair, truth func(record.Pair) bool, difficulty func(record.Pair) float64, cfg Config, maxWorkers int) *AnswerSet {
	if cfg.Workers <= 0 || cfg.Workers%2 == 0 {
		panic(fmt.Sprintf("crowd: Workers must be odd and positive, got %d", cfg.Workers))
	}
	if maxWorkers < cfg.Workers || maxWorkers%2 == 0 {
		panic(fmt.Sprintf("crowd: maxWorkers must be odd and ≥ Workers, got %d", maxWorkers))
	}
	a := &AnswerSet{
		fc:     make(map[record.Pair]float64, len(pairs)),
		truth:  make(map[record.Pair]bool, len(pairs)),
		votes:  make(map[record.Pair]int, len(pairs)),
		config: cfg,
	}
	for _, p := range pairs {
		isDup := truth(p)
		d := difficulty(p)
		rng := rand.New(rand.NewSource(pairSeed(cfg.Seed, p)))
		yes := 0
		total := 0
		for ; total < cfg.Workers; total++ {
			if vote(rng, d, isDup) {
				yes++
			}
		}
		// Escalate narrow votes: margin |yes − no| = |2·yes − total|.
		if abs(2*yes-total) <= 1 {
			for ; total < maxWorkers; total++ {
				if vote(rng, d, isDup) {
					yes++
				}
			}
		}
		a.fc[p] = float64(yes) / float64(total)
		a.truth[p] = isDup
		a.votes[p] = total
	}
	return a
}

// vote draws one worker's answer: correct with probability 1−d.
func vote(rng *rand.Rand, d float64, isDup bool) bool {
	correct := rng.Float64() >= d
	return correct == isDup
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// VoteCount returns the number of worker votes collected for a pair
// (cfg.Workers for every pair of a fixed-allocation answer set).
func (a *AnswerSet) VoteCount(p record.Pair) int {
	if a.votes != nil {
		if v, ok := a.votes[p]; ok {
			return v
		}
	}
	return a.config.Workers
}

// TotalVotes sums the votes across all answered pairs — the cost axis
// the adaptive-allocation experiment reports.
func (a *AnswerSet) TotalVotes() int {
	total := 0
	for p := range a.fc {
		total += a.VoteCount(p)
	}
	return total
}
