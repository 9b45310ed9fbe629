package crowd

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"acd/internal/record"
)

func TestAsyncSourceOrderPreserved(t *testing.T) {
	src := AsyncSource{
		Fn:          func(p record.Pair) float64 { return float64(p.Lo) / 1000 },
		Concurrency: 4,
		Setting:     ThreeWorker(0),
	}
	pairs := adaptivePairs(100)
	scores, _, _ := src.AnswerBatch(context.Background(), pairs)
	for i, p := range pairs {
		if scores[i] != float64(p.Lo)/1000 {
			t.Fatalf("score %d out of order", i)
		}
	}
}

func TestAsyncSourceBoundedConcurrency(t *testing.T) {
	var inFlight, peak int64
	src := AsyncSource{
		Fn: func(p record.Pair) float64 {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return 1
		},
		Concurrency: 3,
		Setting:     ThreeWorker(0),
	}
	src.AnswerBatch(context.Background(), adaptivePairs(30))
	if p := atomic.LoadInt64(&peak); p > 3 {
		t.Errorf("peak concurrency %d exceeds limit 3", p)
	}
	if p := atomic.LoadInt64(&peak); p < 2 {
		t.Errorf("peak concurrency %d suggests no parallelism", p)
	}
}

func TestAsyncSourceDefaultConcurrency(t *testing.T) {
	src := AsyncSource{Fn: func(p record.Pair) float64 { return 0.5 }}
	scores, _, _ := src.AnswerBatch(context.Background(), adaptivePairs(20))
	if len(scores) != 20 {
		t.Fatalf("got %d scores", len(scores))
	}
}

// TestSessionUsesBatchSource: a session over an AsyncSource resolves an
// iteration with one concurrent fan-out, and accounting matches the
// non-batched path.
func TestSessionUsesBatchSource(t *testing.T) {
	var calls int64
	src := AsyncSource{
		Fn: func(p record.Pair) float64 {
			atomic.AddInt64(&calls, 1)
			if p.Lo%2 == 0 {
				return 1
			}
			return 0
		},
		Concurrency: 8,
		Setting:     ThreeWorker(0),
	}
	s := NewSession(src)
	pairs := adaptivePairs(45)
	got := s.Ask(pairs)
	for i, p := range pairs {
		want := 0.0
		if p.Lo%2 == 0 {
			want = 1
		}
		if got[i] != want {
			t.Fatalf("answer %d = %v, want %v", i, got[i], want)
		}
	}
	if atomic.LoadInt64(&calls) != 45 {
		t.Errorf("crowd function called %d times, want 45", calls)
	}
	st := s.Stats()
	if st.Pairs != 45 || st.Iterations != 1 || st.HITs != 3 {
		t.Errorf("stats = %+v", st)
	}
	// Re-asking costs nothing and calls no one.
	s.Ask(pairs[:10])
	if atomic.LoadInt64(&calls) != 45 {
		t.Errorf("re-ask invoked the crowd")
	}
}

// TestAsyncSourceScoreBatchCtxCancel: cancelling the batch stops the
// feed, returns the context's error, and leaks no pool goroutines.
func TestAsyncSourceScoreBatchCtxCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var calls int64
	src := AsyncSource{
		Fn: func(p record.Pair) float64 {
			if atomic.AddInt64(&calls, 1) == 10 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return 1
		},
		Concurrency: 4,
		Setting:     ThreeWorker(0),
	}
	out, _, err := src.AnswerBatch(ctx, adaptivePairs(500))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Errorf("cancelled batch returned scores")
	}
	// Far fewer calls than the batch size: the feed stopped.
	if c := atomic.LoadInt64(&calls); c > 50 {
		t.Errorf("%d calls after cancellation at 10", c)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("pool goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
