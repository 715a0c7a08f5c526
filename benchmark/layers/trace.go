package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"inspire/benchmark/e2e"
	"inspire/internal/query"
	"inspire/internal/serve"
)

// recorder collects the server-side spans of a traced run. It wraps the
// daemon's mux from outside (handler spans) and its Service from inside
// (Querier spans); nothing in the program is instrumented. Spans stay in
// memory until the run ends.
type recorder struct {
	on   atomic.Bool
	mu   sync.Mutex
	done []*reqTrace
}

// reqTrace holds the span boundaries of one request, all on the server's
// clock: the handler's entry and return, and the first entry into and last
// return from the Querier. From them, per request and by construction,
// parse + serve + encode = handler, and net = client - handler.
type reqTrace struct {
	id          uint64
	start, end  time.Time // handler
	first, last time.Time // Querier calls
}

type traceKey struct{}

// handler wraps the mux: with spans on, it opens a reqTrace for every
// request that carries the driver's ID and hands it down in the context.
func (r *recorder) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseUint(req.Header.Get(e2e.ReqHeader), 10, 64)
		if !r.on.Load() || err != nil {
			next.ServeHTTP(w, req)
			return
		}
		rt := &reqTrace{id: id, start: time.Now()}
		next.ServeHTTP(w, req.WithContext(context.WithValue(req.Context(), traceKey{}, rt)))
		rt.end = time.Now()
		r.mu.Lock()
		r.done = append(r.done, rt)
		r.mu.Unlock()
	})
}

// take returns the finished traces by request ID and forgets them.
func (r *recorder) take() map[uint64]*reqTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[uint64]*reqTrace, len(r.done))
	for _, rt := range r.done {
		out[rt.id] = rt
	}
	r.done = nil
	return out
}

// tracedService decorates a Service so every Querier it hands out records
// when the handler entered and left it.
type tracedService struct {
	serve.Service
}

func (s tracedService) NewQuerier() serve.Querier {
	return &tracedQuerier{Querier: s.Service.NewQuerier()}
}

// The daemon reaches live maintenance by asserting serve.Liver on its
// Service, which embedding the interface alone would hide.
func (s tracedService) FlushLive(ctx context.Context) error {
	return s.Service.(serve.Liver).FlushLive(ctx)
}
func (s tracedService) CompactLive(ctx context.Context) error {
	return s.Service.(serve.Liver).CompactLive(ctx)
}
func (s tracedService) SaveLive(ctx context.Context, path string) error {
	return s.Service.(serve.Liver).SaveLive(ctx, path)
}

// tracedQuerier marks the Querier boundary. The daemon serialises the
// requests of a session, so one Querier sees one request at a time, and its
// first call per request is always SetFilter, which has no context: the time
// of that call is kept until the op's own call supplies the request.
type tracedQuerier struct {
	serve.Querier
	filterCalled time.Time
}

func (q *tracedQuerier) SetFilter(f serve.Filter) error {
	q.filterCalled = time.Now()
	return q.Querier.SetFilter(f)
}

// enter opens the Querier span of the request in ctx; the returned func
// closes it.
func (q *tracedQuerier) enter(ctx context.Context) func() {
	rt, _ := ctx.Value(traceKey{}).(*reqTrace)
	if rt == nil {
		return func() {}
	}
	if rt.first.IsZero() {
		rt.first = q.filterCalled
	}
	return func() { rt.last = time.Now() }
}

func (q *tracedQuerier) TermDocs(ctx context.Context, term string) []query.Posting {
	defer q.enter(ctx)()
	return q.Querier.TermDocs(ctx, term)
}
func (q *tracedQuerier) DF(ctx context.Context, term string) int64 {
	defer q.enter(ctx)()
	return q.Querier.DF(ctx, term)
}
func (q *tracedQuerier) And(ctx context.Context, terms ...string) []int64 {
	defer q.enter(ctx)()
	return q.Querier.And(ctx, terms...)
}
func (q *tracedQuerier) Or(ctx context.Context, terms ...string) []int64 {
	defer q.enter(ctx)()
	return q.Querier.Or(ctx, terms...)
}
func (q *tracedQuerier) Similar(ctx context.Context, doc int64, k int) ([]query.Hit, error) {
	defer q.enter(ctx)()
	return q.Querier.Similar(ctx, doc, k)
}
func (q *tracedQuerier) ThemeDocs(ctx context.Context, cluster int) []int64 {
	defer q.enter(ctx)()
	return q.Querier.ThemeDocs(ctx, cluster)
}
func (q *tracedQuerier) Near(ctx context.Context, x, y, radius float64) []int64 {
	defer q.enter(ctx)()
	return q.Querier.Near(ctx, x, y, radius)
}
func (q *tracedQuerier) Tile(ctx context.Context, z, x, y int) (*serve.TileResult, error) {
	defer q.enter(ctx)()
	return q.Querier.Tile(ctx, z, x, y)
}
func (q *tracedQuerier) AddDoc(ctx context.Context, text string, ts int64, facets []string) (int64, error) {
	defer q.enter(ctx)()
	return q.Querier.AddDoc(ctx, text, ts, facets)
}
func (q *tracedQuerier) Delete(ctx context.Context, doc int64) error {
	defer q.enter(ctx)()
	return q.Querier.Delete(ctx, doc)
}

// span is one line of trace.json.
type span struct {
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced window began
	End    int64  `json:"end_ns"`
}

// writeSpans writes the request spans of the traced window: client, handler
// and Querier, each naming the span that caused it.
func writeSpans(path string, origin time.Time, samples []e2e.Sample, traces map[uint64]*reqTrace) error {
	spans := make([]span, 0, 3*len(samples))
	for _, s := range samples {
		op := s.Op.String()
		spans = append(spans, span{s.ID, "client." + op, "", s.Start, s.Start + s.Lat - s.Lag})
		rt := traces[s.ID]
		if rt == nil {
			continue
		}
		spans = append(spans, span{s.ID, "httpd." + op, "client." + op, int64(rt.start.Sub(origin)), int64(rt.end.Sub(origin))})
		if !rt.first.IsZero() {
			spans = append(spans, span{s.ID, "serve." + op, "httpd." + op, int64(rt.first.Sub(origin)), int64(rt.last.Sub(origin))})
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
