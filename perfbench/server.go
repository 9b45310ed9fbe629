package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"acd/internal/core"
	"acd/internal/crowd"
	"acd/internal/obs"
	"acd/internal/pruning"
	"acd/internal/refine"
	"acd/internal/serve"
)

// Server settings: acdserve's flag defaults (1 shard, default τ, ε and
// x, -seed 1, fsync per event, -checkpoint-every 256, -rotate-bytes
// 4 MiB).
const (
	serverShards          = 1
	serverSeed            = 1
	serverCheckpointEvery = 256
	serverCommitWindow    = 0
	serverRotateBytes     = serve.DefaultRotateBytes
)

// serverConfig is the serve.Config acdserve builds from its defaults,
// journaling into dir and asking src for residual resolve questions.
func serverConfig(dir string, src crowd.Source, rec *obs.Recorder) serve.Config {
	return serve.Config{
		Journal: dir,
		Shards:  serverShards,
		Tau:     pruning.DefaultTau, TauSet: true,
		Epsilon: core.DefaultEpsilon, RefineX: refine.DefaultX,
		Seed:            serverSeed,
		CheckpointEvery: serverCheckpointEvery,
		CommitWindow:    serverCommitWindow,
		RotateBytes:     serverRotateBytes,
		Obs:             rec,
		Source:          src,
	}
}

// service is a serve.Server behind a loopback http.Server.
type service struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

// openService opens the server over dir and starts serving it on a
// loopback port. wrap, when non-nil, wraps the handler (the traced
// run's middleware).
func openService(cfg serve.Config, wrap func(http.Handler) http.Handler) (*service, error) {
	srv, err := serve.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &service{
		srv:  srv,
		http: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server, waits for its serve loop, and closes
// the store without a checkpoint — the state an abort leaves, minus
// whatever was not yet durable (nothing is acked before its fsync).
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// requestIDHeader carries the benchmark's request id from client span
// to server span.
const requestIDHeader = "X-Bench-Request-Id"

// client is the benchmark's HTTP client: at most conns connections.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	ids  atomic.Int64
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call sends one request and decodes a 200 response into out. It
// returns the request id it sent and the response body size.
func (c *client) call(method, path string, body any, out any) (string, int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return "", 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return "", 0, err
	}
	id := fmt.Sprintf("r%d", c.ids.Add(1))
	req.Header.Set(requestIDHeader, id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return id, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return id, len(raw), err
	}
	if resp.StatusCode != http.StatusOK {
		return id, len(raw), fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return id, len(raw), fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return id, len(raw), nil
}

// Wire forms of the acdserve API.
type (
	recordBody struct {
		Fields map[string]string `json:"fields"`
		Entity string            `json:"entity"`
	}
	recordsReq struct {
		Records []recordBody `json:"records"`
	}
	recordsResp struct {
		IDs          []int `json:"ids"`
		PendingPairs int   `json:"pending_pairs"`
	}
	answerBody struct {
		Lo     int     `json:"lo"`
		Hi     int     `json:"hi"`
		FC     float64 `json:"fc"`
		Source string  `json:"source"`
	}
	answersReq struct {
		Answers []answerBody `json:"answers"`
	}
	answersResp struct {
		Accepted int `json:"accepted"`
	}
	clustersResp struct {
		Records  int     `json:"records"`
		Clusters [][]int `json:"clusters"`
	}
)

// recordsBody is the POST /records body for a batch of the stream.
func recordsBody(batch []streamRecord) recordsReq {
	req := recordsReq{Records: make([]recordBody, len(batch))}
	for i, r := range batch {
		req.Records[i] = recordBody{Fields: map[string]string{"text": r.Text}, Entity: entityLabel(r.Entity)}
	}
	return req
}

// serverSpans is the traced run's middleware: it records one
// serve/<endpoint> span per request, keyed by the request id the
// client sent, and marks the request in flight for crowd spans.
func serverSpans(tr *tracer, inflight *inflightResolve) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			name := "serve/" + strings.TrimPrefix(r.URL.Path, "/")
			id := tr.newID()
			if r.URL.Path == "/resolve" {
				inflight.set(id)
				defer inflight.set(0)
			}
			start := tr.now()
			next.ServeHTTP(w, r)
			tr.add(span{ID: id, Name: name, Req: r.Header.Get(requestIDHeader), Start: start, End: tr.now()})
		})
	}
}

// inflightResolve holds the span id of the resolve being served, so
// the crowd adapter can parent its spans to it. acdserve runs one
// resolve at a time (the shard barrier serializes them).
type inflightResolve struct{ id atomic.Int64 }

func (f *inflightResolve) set(id int64) {
	if f != nil {
		f.id.Store(id)
	}
}

func (f *inflightResolve) get() int64 {
	if f == nil {
		return 0
	}
	return f.id.Load()
}
