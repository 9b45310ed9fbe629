package crowd

import (
	"context"
	"sync"

	"acd/internal/record"
)

// BatchSource is an optional extension of Source for crowds that can
// answer many pairs concurrently. Session.Ask resolves each batch
// through ScoreBatch when the source has no BatchAnswerer call, so a
// live platform's per-answer latency is paid once per crowd iteration
// instead of once per pair — which is the entire point of the paper's
// batched algorithms.
type BatchSource interface {
	Source
	// ScoreBatch returns f_c for each pair, in order.
	ScoreBatch(pairs []record.Pair) []float64
}

// AsyncSource adapts a blocking per-pair answer function (e.g. an HTTP
// call to a crowdsourcing platform that waits for worker consensus) into
// a BatchAnswerer with bounded fan-out.
type AsyncSource struct {
	// Fn answers one pair; it may block for however long the crowd
	// takes. It must be safe for concurrent use.
	Fn func(record.Pair) float64
	// Concurrency bounds in-flight calls to Fn; values < 1 mean 8.
	Concurrency int
	// Setting describes the collection for accounting.
	Setting Config
}

// Score implements Source.
func (s AsyncSource) Score(p record.Pair) float64 { return s.Fn(p) }

// Config implements Source.
func (s AsyncSource) Config() Config { return s.Setting }

// AnswerBatch implements BatchAnswerer: a fixed pool of Concurrency
// workers drains the batch (rather than one goroutine per pair),
// preserving input order in the output, billed at the Config() rate.
// When ctx is cancelled the feed stops, in-flight calls finish, the
// pool exits without leaking goroutines, and ctx's error is returned.
func (s AsyncSource) AnswerBatch(ctx context.Context, pairs []record.Pair) ([]float64, Bill, error) {
	limit := s.Concurrency
	if limit < 1 {
		limit = 8
	}
	out, err := scorePool(ctx, pairs, limit, s.Fn)
	return out, Bill{Votes: len(pairs) * s.Setting.Workers}, err
}

// scorePool fans a batch out over a fixed pool of `limit` workers
// draining an index channel, writing each answer to its input slot so
// output order matches input order. Shared by AsyncSource and the live
// path of ReliableSource. On cancellation the remaining indices are
// never fed, so workers drain what's left of the channel and exit; the
// partial result is discarded.
func scorePool(ctx context.Context, pairs []record.Pair, limit int, fn func(record.Pair) float64) ([]float64, error) {
	out := make([]float64, len(pairs))
	if len(pairs) == 0 {
		return out, ctx.Err()
	}
	if limit > len(pairs) {
		limit = len(pairs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(limit)
	for w := 0; w < limit; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(pairs[i])
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := range pairs {
		select {
		case idx <- i:
		case <-done:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
