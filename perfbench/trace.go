package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval, named <module>/<Func>. Spans of one
// request share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// N is a size carried by the span: bytes written, records added,
	// pairs asked.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock: time since the tracer was made.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// newID reserves a span id, so children can name a parent that has
// not ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add stores a finished span, assigning it an id when s.ID is zero.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every recorded span (the set-up phase's, say).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byName groups spans by name.
func byName(spans []span) map[string][]span {
	out := map[string][]span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// totalDur sums span durations.
func totalDur(spans []span) time.Duration {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t
}
