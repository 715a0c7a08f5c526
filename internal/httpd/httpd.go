// Package httpd is the daemon's serving surface: the JSON HTTP mux and the
// stdin line protocol that cmd/inspired exposes, factored out of the command
// so it can also be driven in-process — the end-to-end test sweep and the
// repository benchmark's traced runs (benchmark/layers) mount the exact
// handler the production daemon serves, over real HTTP listeners.
//
// The HTTP surface lives under /v1 and wraps every response — answers,
// refusals, wrong methods and unknown paths alike — in the envelope
// {"ok":bool,"data":...,"error":{"code","message"}} with stable error codes
// (bad_request, not_found, disabled, rate_limited, overloaded,
// method_not_allowed, internal) and the matching HTTP status. The line
// protocol writes the bare "data" payload, one per line, errors in-band.
//
// Endpoints (each answers exactly one method: reads GET, mutations POST):
//
//	GET  /v1/term?q=word            posting list of one term
//	GET  /v1/df?q=word              document frequency
//	GET  /v1/and?q=a,b,c            conjunctive query
//	GET  /v1/or?q=a,b,c             disjunctive query
//	GET  /v1/similar?doc=3&k=5      top-K similarity in signature space
//	GET  /v1/theme?cluster=2        documents of one k-means theme
//	GET  /v1/near?x=0&y=0&r=0.2     ThemeView region drill-down
//	GET  /v1/tiles/{z}/{x}/{y}      Galaxy tile
//	POST /v1/add?text=...           ingest a document (returns its ID)
//	                                optional ts=UNIX and repeated facet=k=v
//	                                attach document metadata
//	POST /v1/delete?doc=3           tombstone a document
//	POST /v1/flush                  make pending adds visible now
//	POST /v1/compact                merge sealed segments now
//	POST /v1/save?path=NAME         persist under the configured save dir
//	GET  /v1/themes                 discovered themes
//	GET  /v1/stats                  server cache/traffic/ingest counters
//
// Query endpoints take optional facet-filter parameters: after=UNIX and
// before=UNIX bound the documents' ingest timestamps (inclusive;
// untimestamped documents fail any bound) and repeated facet=key=value
// parameters require every listed facet. The filter is per-request: a
// request without filter parameters is unfiltered, and a filtered answer is
// exactly the unfiltered answer minus the non-matching documents. DF reads
// the corpus-wide descriptor and ignores the filter.
//
// A numeric parameter that is missing or does not parse (doc, cluster,
// x/y/r, a tile coordinate, ts, after, before; k may be absent and then
// defaults to 5) answers bad_request — never a silent zero.
//
// Pass session=NAME on query endpoints to reuse one session across requests:
// it selects the session's rate bucket (see Limits.SessionRate) and its
// query scratch; anonymous requests each get a fresh session. Every request
// runs under its http.Request context, so a disconnected client cancels the
// scatter-gather it was waiting on.
//
// The front door applies admission control when configured with Limits:
// per-session and global token buckets, a bounded in-flight ceiling shedding
// excess load with 429 + Retry-After, and graceful degradation (smaller
// similarity K, coarser tiles, flagged with X-Degraded: 1) as the in-flight
// level approaches the ceiling.
//
// Every response is encoded into a pooled buffer and written once, with its
// Content-Length; encode.go holds that path.
package httpd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"inspire/internal/query"
	"inspire/internal/serve"
)

// Stable error codes of the HTTP envelope.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeDisabled         = "disabled"
	CodeRateLimited      = "rate_limited"
	CodeOverloaded       = "overloaded"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeInternal         = "internal"
)

// Limits configures the front door's admission control. The zero value
// disables every limit — the pre-replication behaviour.
type Limits struct {
	// MaxInFlight bounds concurrently executing requests; excess requests
	// are shed with 429 + Retry-After. 0 = unbounded.
	MaxInFlight int
	// RetryAfter is advertised on shed responses. Default 1s.
	RetryAfter time.Duration
	// SessionRate is each named session's sustained requests/sec (token
	// bucket, SessionBurst deep). 0 = unlimited.
	SessionRate  float64
	SessionBurst int
	// GlobalRate caps the whole daemon's sustained requests/sec. 0 =
	// unlimited.
	GlobalRate  float64
	GlobalBurst int
	// DegradeThreshold is the fraction of MaxInFlight above which replies
	// degrade (smaller similarity K, coarser tiles) instead of shedding;
	// 0 disables degradation.
	DegradeThreshold float64
	// DegradeSimilarK clamps similar?k= while degraded. Default 3.
	DegradeSimilarK int
	// DegradeMaxZoom clamps tile zoom while degraded (deeper addresses are
	// answered by their ancestor at this zoom). Default 3.
	DegradeMaxZoom int
}

func (l Limits) withDefaults() Limits {
	if l.RetryAfter <= 0 {
		l.RetryAfter = time.Second
	}
	if l.SessionBurst <= 0 {
		l.SessionBurst = int(math.Max(1, l.SessionRate))
	}
	if l.GlobalBurst <= 0 {
		l.GlobalBurst = int(math.Max(1, l.GlobalRate))
	}
	if l.DegradeSimilarK <= 0 {
		l.DegradeSimilarK = 3
	}
	if l.DegradeMaxZoom <= 0 {
		l.DegradeMaxZoom = 3
	}
	return l
}

// bucket is a token bucket: rate tokens/sec, burst deep, prefilled.
type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
	rate   float64
	burst  float64
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{tokens: float64(burst), rate: rate, burst: float64(burst)}
}

func (b *bucket) allow(now time.Time) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Daemon multiplexes named sessions over the serving surface — a monolithic
// Server or a sharded Router, indistinguishable behind serve.Service.
type Daemon struct {
	srv serve.Service
	// saveDir confines HTTP /save targets; empty disables the endpoint.
	saveDir string

	limits   Limits
	global   *bucket
	inflight atomic.Int64
	shed     atomic.Uint64

	mu       sync.Mutex
	sessions map[string]*namedSession
}

// New builds a daemon over a service. saveDir confines HTTP /save targets to
// plain file names inside it; empty disables the endpoint entirely.
func New(srv serve.Service, saveDir string) *Daemon {
	return &Daemon{srv: srv, saveDir: saveDir, sessions: make(map[string]*namedSession)}
}

// SetLimits installs the admission-control configuration. Call before the
// mux starts serving.
func (d *Daemon) SetLimits(l Limits) {
	d.limits = l.withDefaults()
	d.global = newBucket(d.limits.GlobalRate, d.limits.GlobalBurst)
}

// Shed returns how many requests admission control has shed with 429.
func (d *Daemon) Shed() uint64 { return d.shed.Load() }

// namedSession serializes the requests of one session name: a Querier
// requires one goroutine at a time.
type namedSession struct {
	mu   sync.Mutex
	sess serve.Querier
	bkt  *bucket
}

// maxNamedSessions bounds the retained session table; once full, unseen
// names fall back to throwaway sessions instead of growing memory without
// bound.
const maxNamedSessions = 1024

// session returns the named session, creating it on first use; the empty
// name gets a fresh throwaway session.
func (d *Daemon) session(name string) *namedSession {
	if name == "" {
		return &namedSession{sess: d.srv.NewQuerier()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.sessions[name]; ok {
		return s
	}
	if len(d.sessions) >= maxNamedSessions {
		return &namedSession{sess: d.srv.NewQuerier()}
	}
	s := &namedSession{sess: d.srv.NewQuerier()}
	if d.limits.SessionRate > 0 {
		s.bkt = newBucket(d.limits.SessionRate, d.limits.SessionBurst)
	}
	d.sessions[name] = s
	return s
}

// Reply is the JSON payload of every query response: the "data" field of the
// HTTP envelope, the whole line on the line protocol.
type Reply struct {
	Op       string            `json:"op"`
	Count    int               `json:"count"`              // result cardinality
	Postings []query.Posting   `json:"postings,omitempty"` // term queries
	Docs     []int64           `json:"docs,omitempty"`     // boolean/theme/near queries
	Hits     []query.Hit       `json:"hits,omitempty"`     // similarity queries
	Tile     *serve.TileResult `json:"tile,omitempty"`     // galaxy tile queries
	DF       int64             `json:"df,omitempty"`
	Doc      int64             `json:"doc,omitempty"` // add: the assigned document ID
	OK       bool              `json:"ok,omitempty"`  // add/delete/flush/compact/save
	Error    string            `json:"error,omitempty"`
}

// ErrorInfo is the envelope's error half.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Envelope is the HTTP response shape, for clients to decode into; the
// daemon itself writes it with appendEnvelope.
type Envelope struct {
	OK    bool            `json:"ok"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error *ErrorInfo      `json:"error,omitempty"`
}

// errCode classifies an op error message onto the stable code set.
func errCode(msg string) string {
	switch {
	case strings.Contains(msg, "disabled"):
		return CodeDisabled
	case strings.Contains(msg, "not found"):
		return CodeNotFound
	case strings.Contains(msg, "context"):
		return CodeInternal
	default:
		return CodeBadRequest
	}
}

// httpStatus maps a stable error code to its transport status.
func httpStatus(code string) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodeRateLimited, CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// params reads one op's parameters, named as the HTTP routes document them
// (the line protocol spells its positional arguments the same way). The
// numeric readers keep the first missing or malformed value in err and the
// caller refuses the request: strconv's zero value would alias garbage to
// document 0, cluster 0, the root tile or the origin.
type params struct {
	url.Values
	err error
}

// num reads an integer of the given bit size (0 = int).
func (p *params) num(key, what string, bits int) int64 {
	v := p.Get(key)
	n, err := strconv.ParseInt(v, 10, bits)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("%s %q is not %s", key, v, what)
	}
	return n
}

// optNum is num for a parameter that may be absent (0 then).
func (p *params) optNum(key, what string) int64 {
	if p.Get(key) == "" {
		return 0
	}
	return p.num(key, what, 64)
}

// float reads a finite number: strconv accepts "NaN" and "Inf", which are
// not coordinates — a NaN radius matches nothing and an infinite one
// everything.
func (p *params) float(key string) float64 {
	v := p.Get(key)
	f, err := strconv.ParseFloat(v, 64)
	if (err != nil || math.IsNaN(f) || math.IsInf(f, 0)) && p.err == nil {
		p.err = fmt.Errorf("%s %q is not a number", key, v)
	}
	return f
}

// run executes one operation against a session, holding its lock so
// concurrent requests on one name serialize. degraded requests answer with
// reduced fidelity: a clamped similarity K, and tile addresses coarsened to
// the degrade zoom.
func (d *Daemon) run(ctx context.Context, ns *namedSession, op string, vals url.Values, degraded bool) Reply {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	sess := ns.sess
	rep := Reply{Op: op}
	p := params{Values: vals}
	// The metadata filter is per-request: absent parameters install the zero
	// Filter, which clears anything a previous request on this named session
	// set. Writes ignore the filter, so installing it unconditionally keeps
	// every op on one code path.
	f := serve.Filter{
		After:  p.optNum("after", "a unix timestamp"),
		Before: p.optNum("before", "a unix timestamp"),
		Facets: vals["facet"],
	}
	if p.err == nil {
		p.err = sess.SetFilter(f)
	}
	if p.err != nil {
		rep.Error = p.err.Error()
		return rep
	}
	terms := func() []string {
		return strings.FieldsFunc(p.Get("q"), func(r rune) bool { return r == ',' || r == ' ' })
	}
	switch op {
	case "term":
		rep.Postings = sess.TermDocs(ctx, p.Get("q"))
		rep.Count = len(rep.Postings)
	case "df":
		rep.DF = sess.DF(ctx, p.Get("q"))
	case "and":
		rep.Docs = sess.And(ctx, terms()...)
		rep.Count = len(rep.Docs)
	case "or":
		rep.Docs = sess.Or(ctx, terms()...)
		rep.Count = len(rep.Docs)
	case "similar":
		doc := p.num("doc", "a document ID", 64)
		k := int(p.optNum("k", "a result count"))
		if p.err != nil {
			break
		}
		if k <= 0 {
			k = 5
		}
		if degraded && k > d.limits.DegradeSimilarK {
			k = d.limits.DegradeSimilarK
		}
		hits, err := sess.Similar(ctx, doc, k)
		if err != nil {
			rep.Error = err.Error()
		}
		rep.Hits = hits
		rep.Count = len(hits)
	case "theme":
		if k := int(p.num("cluster", "a cluster index", 0)); p.err == nil {
			rep.Docs = sess.ThemeDocs(ctx, k)
			rep.Count = len(rep.Docs)
		}
	case "near":
		if x, y, r := p.float("x"), p.float("y"), p.float("r"); p.err == nil {
			rep.Docs = sess.Near(ctx, x, y, r)
			rep.Count = len(rep.Docs)
		}
	case "tile":
		z, x, y := int(p.num("z", "", 0)), int(p.num("x", "", 0)), int(p.num("y", "", 0))
		if p.err != nil {
			p.err = fmt.Errorf("tile address %q/%q/%q is not numeric", p.Get("z"), p.Get("x"), p.Get("y"))
			break
		}
		if degraded && z > d.limits.DegradeMaxZoom {
			// Coarser tiles under overload: answer with the ancestor at the
			// degrade zoom, which covers the requested extent.
			dz := z - d.limits.DegradeMaxZoom
			z, x, y = d.limits.DegradeMaxZoom, x>>dz, y>>dz
		}
		t, err := sess.Tile(ctx, z, x, y)
		if err != nil {
			rep.Error = err.Error()
		} else {
			rep.Tile = t
			rep.Count = int(t.Docs)
		}
	case "add":
		ts := p.optNum("ts", "a unix timestamp")
		if p.err != nil {
			break
		}
		doc, err := sess.AddDoc(ctx, p.Get("text"), ts, vals["facet"])
		if err != nil {
			rep.Error = err.Error()
		} else {
			rep.Doc, rep.OK = doc, true
		}
	case "delete":
		doc := p.num("doc", "a document ID", 64)
		if p.err != nil {
			break
		}
		if err := sess.Delete(ctx, doc); err != nil {
			rep.Error = err.Error()
		} else {
			rep.Doc, rep.OK = doc, true
		}
	default:
		rep.Error = fmt.Sprintf("unknown op %q", op)
		return rep
	}
	if p.err != nil {
		rep.Error = p.err.Error()
	}
	return rep
}

// live executes one service-level maintenance op (flush/compact/save) — not
// a session interaction.
func (d *Daemon) live(ctx context.Context, op, path string) Reply {
	rep := Reply{Op: op}
	lv, ok := d.srv.(serve.Liver)
	if !ok {
		rep.Error = "live maintenance is disabled on this service"
		return rep
	}
	var err error
	switch op {
	case "flush":
		err = lv.FlushLive(ctx)
	case "compact":
		err = lv.CompactLive(ctx)
	case "save":
		if path == "" {
			err = fmt.Errorf("save needs a path")
		} else {
			err = lv.SaveLive(ctx, path)
		}
	}
	if err != nil {
		rep.Error = err.Error()
	} else {
		rep.OK = true
	}
	return rep
}

// admit applies admission control for one request; when it returns false the
// response has been written. degraded reports whether the in-flight level
// crossed the degradation threshold. Callers must release() when admitted.
func (d *Daemon) admit(w http.ResponseWriter, name string) (degraded, ok bool) {
	l := d.limits
	now := time.Now()
	if !d.global.allow(now) {
		d.shedReply(w, CodeRateLimited, "global request rate exceeded")
		return false, false
	}
	if name != "" && l.SessionRate > 0 {
		if ns := d.session(name); !ns.bkt.allow(now) {
			d.shedReply(w, CodeRateLimited, fmt.Sprintf("session %q rate exceeded", name))
			return false, false
		}
	}
	if l.MaxInFlight > 0 {
		if in := d.inflight.Load(); int(in) >= l.MaxInFlight {
			d.shedReply(w, CodeOverloaded, "server is at its in-flight ceiling")
			return false, false
		}
		if l.DegradeThreshold > 0 &&
			float64(d.inflight.Load()) >= l.DegradeThreshold*float64(l.MaxInFlight) {
			degraded = true
		}
	}
	d.inflight.Add(1)
	return degraded, true
}

func (d *Daemon) release() { d.inflight.Add(-1) }

// shedReply writes a 429 with Retry-After.
func (d *Daemon) shedReply(w http.ResponseWriter, code, msg string) {
	d.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(d.limits.RetryAfter.Seconds()))))
	writeError(w, code, msg)
}

// writeReply writes an op result in the envelope (op errors map onto the
// stable code set).
func writeReply(w http.ResponseWriter, rep *Reply) {
	bb := newBody()
	var status int
	bb.b, status = appendEnvelope(bb.b, rep)
	bb.send(w, status)
}

// writeError writes a refusal that never reached an op — shed, wrong method,
// unknown path — with the transport status of its code.
func writeError(w http.ResponseWriter, code, msg string) {
	bb := newBody()
	bb.b = appendErrorEnvelope(bb.b, code, msg)
	bb.send(w, httpStatus(code))
}

// writeValue writes a /themes or /stats document.
func writeValue(w http.ResponseWriter, v any) {
	bb := newBody()
	var status int
	bb.b, status = appendValueEnvelope(bb.b, v)
	bb.send(w, status)
}

// Mux builds the HTTP surface. Every route is registered with the one method
// it answers: queries GET (and so HEAD); every endpoint that mutates server
// state (add/delete/flush/compact/save) POST, so crawlers, prefetchers and
// simple cross-site GETs cannot trip them. The mux's own plain-text 405 and
// 404 are never reached: handle refuses a wrong method and the catch-all an
// unknown path, both in the envelope.
func (d *Daemon) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(method, path string, h http.HandlerFunc) {
		allow, msg := "GET, HEAD", "read endpoint: use GET"
		if method == http.MethodPost {
			allow, msg = "POST", "mutating endpoint: use POST"
		}
		mux.HandleFunc("/v1"+path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
				w.Header().Set("Allow", allow)
				writeError(w, CodeMethodNotAllowed, msg)
				return
			}
			h(w, r)
		})
	}
	// answer admits one request, runs its op and writes the reply; vals is
	// the request's query string, parsed once.
	answer := func(w http.ResponseWriter, r *http.Request, op string, vals url.Values) {
		name := vals.Get("session")
		degraded, ok := d.admit(w, name)
		if !ok {
			return
		}
		defer d.release()
		if degraded {
			w.Header().Set("X-Degraded", "1")
		}
		rep := d.run(r.Context(), d.session(name), op, vals, degraded)
		writeReply(w, &rep)
	}
	sessionOps := func(method string, ops ...string) {
		for _, op := range ops {
			handle(method, "/"+op, func(w http.ResponseWriter, r *http.Request) {
				answer(w, r, op, r.URL.Query())
			})
		}
	}
	sessionOps(http.MethodGet, "term", "df", "and", "or", "similar", "theme", "near")
	sessionOps(http.MethodPost, "add", "delete")
	// Galaxy tiles are addressed by path, slippy-map style.
	handle(http.MethodGet, "/tiles/{z}/{x}/{y}", func(w http.ResponseWriter, r *http.Request) {
		vals := r.URL.Query()
		for _, k := range []string{"z", "x", "y"} {
			vals.Set(k, r.PathValue(k))
		}
		answer(w, r, "tile", vals)
	})
	for _, op := range []string{"flush", "compact", "save"} {
		handle(http.MethodPost, "/"+op, func(w http.ResponseWriter, r *http.Request) {
			path := r.URL.Query().Get("path")
			if op == "save" {
				resolved, err := savePath(d.saveDir, path)
				if err != nil {
					writeReply(w, &Reply{Op: op, Error: err.Error()})
					return
				}
				path = resolved
			}
			rep := d.live(r.Context(), op, path)
			writeReply(w, &rep)
		})
	}
	handle(http.MethodGet, "/themes", func(w http.ResponseWriter, r *http.Request) {
		writeValue(w, d.srv.Themes())
	})
	handle(http.MethodGet, "/stats", func(w http.ResponseWriter, r *http.Request) {
		writeValue(w, d.srv.Stats())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, CodeNotFound, fmt.Sprintf("no such route %q", r.URL.Path))
	})
	return mux
}

// savePath resolves an HTTP /save target to a plain file name inside the
// configured save dir, so a client with network access never gets a
// file-write primitive against an arbitrary server-side path. An empty dir
// keeps the endpoint disabled.
func savePath(dir, name string) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("save over HTTP is disabled; start inspired with -save-dir")
	}
	if name == "" || name == "." || name == ".." ||
		name != filepath.Base(name) || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("save path must be a plain file name (it is written inside -save-dir)")
	}
	return filepath.Join(dir, name), nil
}

// ServeLines answers the stdin line protocol: one op per line, JSON per
// line. Lines are "term apple", "and apple banana", "similar 3 5",
// "theme 2", "near 0 0 0.2", "tile 2 1 3", "df apple", "stats", "quit".
// "filter after=100 before=200 key=value ..." installs a sticky metadata
// filter on the connection's session (applied to every later query op);
// "filter" alone clears it. Unlike HTTP /save, the line protocol's save
// takes a full path — it is the operator's own terminal, not the network
// surface.
func (d *Daemon) ServeLines(in io.Reader, out io.Writer) {
	ctx := context.Background()
	sess := &namedSession{sess: d.srv.NewQuerier()}
	sc := bufio.NewScanner(in)
	var line []byte
	// emit writes one reply line, bare: the envelope is HTTP's. A write error
	// means the terminal is gone; the next Scan ends the loop.
	emit := func(rep Reply) {
		line = appendLine(line[:0], &rep)
		_, _ = out.Write(line)
	}
	// The connection's sticky filter, re-injected into every op's parameters
	// so run() — which resets the session filter from its arguments each call
	// — keeps HTTP requests stateless while the terminal stays sticky.
	filter := url.Values{}
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		op, rest := fields[0], fields[1:]
		switch op {
		case "quit", "exit":
			return
		case "stats":
			raw, err := json.Marshal(d.srv.Stats())
			if err != nil {
				emit(Reply{Op: op, Error: err.Error()})
				continue
			}
			_, _ = out.Write(append(raw, '\n'))
			continue
		case "filter":
			filter = url.Values{}
			for _, tok := range rest {
				switch {
				case strings.HasPrefix(tok, "after="):
					filter.Set("after", tok[len("after="):])
				case strings.HasPrefix(tok, "before="):
					filter.Set("before", tok[len("before="):])
				default:
					filter.Add("facet", tok)
				}
			}
			emit(Reply{Op: op, OK: true, Count: len(filter["facet"])})
			continue
		case "flush", "compact", "save":
			path := ""
			if len(rest) > 0 {
				path = rest[0]
			}
			emit(d.live(ctx, op, path))
			continue
		}
		vals := url.Values{}
		for k, v := range filter {
			vals[k] = v
		}
		// Positional arguments take the HTTP parameter names; a missing one
		// stays unset and run() refuses it where the op needs it.
		var names []string
		switch op {
		case "term", "df":
			names = []string{"q"}
		case "and", "or":
			rest = []string{strings.Join(rest, ",")}
			names = []string{"q"}
		case "add":
			rest = []string{strings.Join(rest, " ")}
			names = []string{"text"}
		case "delete":
			names = []string{"doc"}
		case "similar":
			names = []string{"doc", "k"}
		case "theme":
			names = []string{"cluster"}
		case "near":
			names = []string{"x", "y", "r"}
		case "tile":
			names = []string{"z", "x", "y"}
		}
		for i, name := range names {
			if i < len(rest) {
				vals.Set(name, rest[i])
			}
		}
		emit(d.run(ctx, sess, op, vals, false))
	}
}
