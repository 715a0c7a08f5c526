package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/query"
	"inspire/internal/serve"
	"inspire/internal/simtime"
	"inspire/internal/tiles"
)

// TestSavePathConfinement pins the /save target policy: a plain file name
// joined under the save dir, everything else — absolute paths, separators,
// traversal, or an unconfigured dir — refused.
func TestSavePathConfinement(t *testing.T) {
	if _, err := savePath("", "run.live"); err == nil {
		t.Fatal("save allowed without a save dir")
	}
	got, err := savePath("/data", "run.live")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("/data", "run.live"); got != want {
		t.Fatalf("savePath = %q, want %q", got, want)
	}
	for _, name := range []string{"", ".", "..", "/etc/passwd", "../escape", "sub/file", `sub\file`, "a/../b"} {
		if _, err := savePath("/data", name); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

// stubQuerier/stubService satisfy the serving interfaces with inert answers,
// so the routing-policy tests need no indexed store behind them.
type stubQuerier struct{}

func (stubQuerier) TermDocs(context.Context, string) []query.Posting         { return nil }
func (stubQuerier) DF(context.Context, string) int64                         { return 0 }
func (stubQuerier) And(context.Context, ...string) []int64                   { return nil }
func (stubQuerier) Or(context.Context, ...string) []int64                    { return nil }
func (stubQuerier) Similar(context.Context, int64, int) ([]query.Hit, error) { return nil, nil }
func (stubQuerier) ThemeDocs(context.Context, int) []int64                   { return nil }
func (stubQuerier) Near(context.Context, float64, float64, float64) []int64  { return nil }
func (stubQuerier) Tile(context.Context, int, int, int) (*serve.TileResult, error) {
	return &serve.TileResult{}, nil
}
func (stubQuerier) TileRange(context.Context, int, tiles.Rect) ([]*serve.TileResult, error) {
	return nil, nil
}
func (stubQuerier) Add(context.Context, string) (int64, error) { return 0, nil }
func (stubQuerier) AddDoc(context.Context, string, int64, []string) (int64, error) {
	return 0, nil
}
func (stubQuerier) SetFilter(serve.Filter) error        { return nil }
func (stubQuerier) Delete(context.Context, int64) error { return nil }
func (stubQuerier) Release()                            {}

type stubService struct{}

func (stubService) NewQuerier() serve.Querier               { return stubQuerier{} }
func (stubService) Stats() serve.Stats                      { return serve.Stats{} }
func (stubService) TopTerms(context.Context, int) []string  { return nil }
func (stubService) SampleDocs(context.Context, int) []int64 { return nil }
func (stubService) NumThemes() int                          { return 0 }
func (stubService) Themes() []core.Theme                    { return nil }

// do serves one request straight off the mux and decodes the envelope.
func do(t *testing.T, mux http.Handler, method, target string) result {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return decode(t, method+" "+target, rec.Result())
}

// TestMutatingEndpointsRequirePOST pins the method split of the HTTP surface:
// every state-changing endpoint rejects GET with 405, queries stay on GET,
// and /save without a save dir refuses rather than writing.
func TestMutatingEndpointsRequirePOST(t *testing.T) {
	mux := New(stubService{}, "").Mux()

	for _, ep := range []string{"/v1/add?text=x", "/v1/delete?doc=1", "/v1/flush", "/v1/compact", "/v1/save?path=x"} {
		rep := do(t, mux, http.MethodGet, ep)
		if rep.Status != http.StatusMethodNotAllowed || rep.Code != CodeMethodNotAllowed {
			t.Fatalf("GET %s = %d %q, want 405 %s", ep, rep.Status, rep.Code, CodeMethodNotAllowed)
		}
		// The 405 still carries a JSON body naming the fix.
		if !strings.Contains(rep.Error, "POST") {
			t.Fatalf("GET %s: 405 body %+v does not name POST", ep, rep)
		}
	}
	for _, ep := range []string{"/v1/df?q=x", "/v1/and?q=a,b", "/v1/similar?doc=0&k=3", "/v1/stats"} {
		if rep := do(t, mux, http.MethodGet, ep); rep.Status != http.StatusOK {
			t.Fatalf("GET %s = %d, want %d", ep, rep.Status, http.StatusOK)
		}
	}
	if rep := do(t, mux, http.MethodPost, "/v1/add?text=x"); rep.Status != http.StatusOK {
		t.Fatalf("POST /v1/add = %d, want %d", rep.Status, http.StatusOK)
	}

	// No save dir configured: /save must refuse with an error, not write.
	rep := do(t, mux, http.MethodPost, "/v1/save?path=/tmp/anywhere")
	if rep.OK || rep.Code != CodeDisabled {
		t.Fatalf("unconfined save not refused: %+v", rep)
	}
}

// TestTilesEndpointRouting pins the slippy-map tile route: GET answers with a
// tile envelope, the path values reach the querier, and mutation methods 405.
func TestTilesEndpointRouting(t *testing.T) {
	mux := New(stubService{}, "").Mux()

	rep := do(t, mux, http.MethodGet, "/v1/tiles/2/1/3?session=a")
	if rep.Status != http.StatusOK || rep.Op != "tile" || rep.Error != "" || rep.Tile == nil {
		t.Fatalf("GET /v1/tiles/2/1/3 = %+v", rep)
	}
	if rep = do(t, mux, http.MethodPost, "/v1/tiles/0/0/0"); rep.Status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/tiles/0/0/0 = %d, want %d", rep.Status, http.StatusMethodNotAllowed)
	}
	// A malformed address must error, not alias to the (0,0,0) root tile.
	rep = do(t, mux, http.MethodGet, "/v1/tiles/abc/def/ghi")
	if rep.Code != CodeBadRequest || rep.Tile != nil {
		t.Fatalf("non-numeric tile address not refused: %+v", rep)
	}
}

// TestRouteTable walks the whole documented surface: every route answers its
// one method with 200 and refuses the other with 405 method_not_allowed and
// an Allow header; any other path — under /v1 or not, a retired unversioned
// alias included — answers 404 not_found. Every one of them is an
// application/json envelope with its Content-Length (decode checks both), never
// the mux's own plain-text error.
func TestRouteTable(t *testing.T) {
	mux := New(buildService(t, 1), t.TempDir()).Mux()
	other := map[string]string{http.MethodGet: http.MethodPost, http.MethodPost: http.MethodGet}
	for _, route := range []struct{ method, target string }{
		{http.MethodGet, "/v1/term?q=apple"},
		{http.MethodGet, "/v1/df?q=apple"},
		{http.MethodGet, "/v1/and?q=apple,banana"},
		{http.MethodGet, "/v1/or?q=apple,durian"},
		{http.MethodGet, "/v1/similar?doc=0&k=3"},
		{http.MethodGet, "/v1/theme?cluster=0"},
		{http.MethodGet, "/v1/near?x=0&y=0&r=2"},
		{http.MethodGet, "/v1/tiles/0/0/0"},
		{http.MethodPost, "/v1/add?text=apple+kiwi"},
		{http.MethodPost, "/v1/delete?doc=1"},
		{http.MethodPost, "/v1/flush"},
		{http.MethodPost, "/v1/compact"},
		{http.MethodPost, "/v1/save?path=run.live"},
		{http.MethodGet, "/v1/themes"},
		{http.MethodGet, "/v1/stats"},
	} {
		if rep := do(t, mux, route.method, route.target); rep.Status != http.StatusOK {
			t.Errorf("%s %s = %d %q %s, want 200", route.method, route.target, rep.Status, rep.Code, rep.Error)
		}
		for _, wrong := range []string{other[route.method], http.MethodDelete} {
			rep := do(t, mux, wrong, route.target)
			if rep.Status != http.StatusMethodNotAllowed || rep.Code != CodeMethodNotAllowed {
				t.Errorf("%s %s = %d %q, want 405 %s", wrong, route.target, rep.Status, rep.Code, CodeMethodNotAllowed)
			}
			if allow := rep.Header.Get("Allow"); !strings.Contains(allow, route.method) || strings.Contains(allow, wrong) {
				t.Errorf("%s %s: Allow %q, want %s", wrong, route.target, allow, route.method)
			}
			if !strings.Contains(rep.Error, route.method) {
				t.Errorf("%s %s: message %q does not name %s", wrong, route.target, rep.Error, route.method)
			}
		}
	}
	for _, target := range []string{"/v1/nosuch", "/v1/tiles/1/2", "/term?q=apple", "/stats", "/", "/v1", "/v1/term/"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			rep := do(t, mux, method, target)
			if rep.Status != http.StatusNotFound || rep.Code != CodeNotFound {
				t.Errorf("%s %s = %d %q, want 404 %s", method, target, rep.Status, rep.Code, CodeNotFound)
			}
		}
	}
	// HEAD is GET without the body, as net/http serves it.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/v1/term?q=apple", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("HEAD /v1/term = %d, want 200", rec.Code)
	}
}

// e2eDocs is the hand corpus behind the end-to-end sweep: known term overlap
// for boolean queries, two clear topic groups for themes/tiles, and unique
// marker terms for live add/delete assertions.
var e2eDocs = []string{
	"apple apple banana banana cherry",
	"apple banana banana",
	"apple apple cherry cherry",
	"durian durian elder elder fig fig",
	"durian elder elder fig",
	"grape grape honeydew honeydew kiwi kiwi",
	"grape kiwi kiwi honeydew",
	"banana cherry durian grape",
}

// buildService runs the real pipeline over e2eDocs and wraps it in a Server
// (shards==1) or a scatter-gather Router.
func buildService(t *testing.T, shards int) serve.Service {
	t.Helper()
	return buildServiceOf(t, []*corpus.Source{corpus.FromTexts("httpd-e2e", e2eDocs)}, shards)
}

// buildServiceOf is buildService over any corpus.
func buildServiceOf(t testing.TB, srcs []*corpus.Source, shards int) serve.Service {
	t.Helper()
	var st *serve.Store
	_, err := cluster.Run(2, simtime.Zero(), func(c *cluster.Comm) error {
		res, err := core.Run(c, srcs, core.Config{TopN: 100, TopicFrac: 0.5, CollectSignatures: true})
		if err != nil {
			return err
		}
		got, err := serve.Snapshot(c, res)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st = got
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{}
	if shards > 1 {
		parts, err := st.Shard(shards)
		if err != nil {
			t.Fatal(err)
		}
		r, err := serve.NewRouter(parts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	srv, err := serve.NewServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// result is one decoded HTTP response: the envelope's data as a Reply, or
// its error — Code the stable code, Error the message — with the transport
// status and headers. Raw is the data payload, for the routes whose data is
// not a Reply (/themes, /stats).
type result struct {
	Reply
	Status int
	Code   string
	Header http.Header
	Raw    json.RawMessage
}

// decode reads one response into a result. Every response of the daemon is
// an application/json envelope with an exact Content-Length, so decode
// insists on both; what names the request in failures.
func decode(t *testing.T, what string, resp *http.Response) result {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: %d with Content-Type %q, want application/json", what, resp.StatusCode, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", what, cl, len(raw))
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s: body %q: %v", what, raw, err)
	}
	res := result{Status: resp.StatusCode, Header: resp.Header, Raw: env.Data}
	switch {
	case env.OK != (env.Error == nil), env.OK != (resp.StatusCode == http.StatusOK):
		t.Fatalf("%s: %d with envelope %s", what, resp.StatusCode, raw)
	case !env.OK:
		res.Code, res.Error = env.Error.Code, env.Error.Message
		if res.Code == "" || res.Error == "" {
			t.Fatalf("%s: error envelope %s lacks a code or a message", what, raw)
		}
	case bytes.HasPrefix(env.Data, []byte(`{"op":`)): // a Reply; /themes and /stats are not
		if err := json.Unmarshal(env.Data, &res.Reply); err != nil {
			t.Fatalf("%s: data %s: %v", what, env.Data, err)
		}
	}
	return res
}

// get issues a real HTTP request against the test server and decodes the
// envelope.
func get(t *testing.T, client *http.Client, method, url string) result {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return decode(t, method+" "+url, resp)
}

// TestEndToEndSweep drives every route of the daemon over real HTTP against
// a real indexed store — single-store and sharded — including error paths,
// live ingest, maintenance endpoints and /save persistence.
func TestEndToEndSweep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"single", 1},
		{"sharded", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			saveDir := t.TempDir()
			ts := httptest.NewServer(New(buildService(t, tc.shards), saveDir).Mux())
			defer ts.Close()
			c := ts.Client()

			v1 := ts.URL + "/v1"

			// Term query: apple appears in docs 0,1,2.
			rep := get(t, c, http.MethodGet, v1+"/term?q=apple")
			if rep.Status != http.StatusOK || rep.Op != "term" || rep.Count != 3 || len(rep.Postings) != 3 {
				t.Fatalf("/term?q=apple = %+v", rep)
			}

			// DF and a missing term.
			if rep = get(t, c, http.MethodGet, v1+"/df?q=banana"); rep.DF != 3 {
				t.Fatalf("/df?q=banana = %+v, want DF 3", rep)
			}
			if rep = get(t, c, http.MethodGet, v1+"/df?q=zzz"); rep.Status != http.StatusOK || rep.DF != 0 {
				t.Fatalf("/df?q=zzz = %+v, want DF 0", rep)
			}

			// Boolean queries; q splits on commas and spaces.
			rep = get(t, c, http.MethodGet, v1+"/and?q=apple,banana")
			if rep.Count != 2 || len(rep.Docs) != 2 {
				t.Fatalf("/and apple,banana = %+v, want docs {0,1}", rep)
			}
			rep = get(t, c, http.MethodGet, v1+"/or?q=apple,durian")
			if rep.Count != 6 {
				t.Fatalf("/or apple,durian = %+v, want 6 docs", rep)
			}

			// Similarity: a valid target answers hits; an unknown document is
			// a not_found envelope, not a transport failure.
			rep = get(t, c, http.MethodGet, v1+"/similar?doc=0&k=3")
			if rep.Status != http.StatusOK || rep.Count == 0 {
				t.Fatalf("/similar?doc=0 = %+v", rep)
			}
			rep = get(t, c, http.MethodGet, v1+"/similar?doc=99999&k=3")
			if rep.Status != http.StatusNotFound || rep.Code != CodeNotFound {
				t.Fatalf("unknown similar target = %+v, want 404 not_found", rep)
			}

			// Theme drill-down and ThemeView region query.
			rep = get(t, c, http.MethodGet, v1+"/theme?cluster=0")
			if rep.Op != "theme" || rep.Error != "" {
				t.Fatalf("/theme?cluster=0 = %+v", rep)
			}
			rep = get(t, c, http.MethodGet, v1+"/near?x=0&y=0&r=2")
			if rep.Op != "near" || rep.Count != len(e2eDocs) {
				t.Fatalf("/near radius 2 = %+v, want all %d docs", rep, len(e2eDocs))
			}

			// Root tile covers the whole projection.
			rep = get(t, c, http.MethodGet, v1+"/tiles/0/0/0")
			if rep.Status != http.StatusOK || rep.Tile == nil {
				t.Fatalf("/tiles/0/0/0 = %+v", rep)
			}
			if rep.Tile.Docs != int64(len(e2eDocs)) {
				t.Fatalf("root tile covers %d docs, want %d", rep.Tile.Docs, len(e2eDocs))
			}
			// Out-of-range and malformed addresses are refused.
			if rep = get(t, c, http.MethodGet, v1+"/tiles/0/5/5"); rep.Code != CodeBadRequest {
				t.Fatalf("out-of-range tile not refused: %+v", rep)
			}
			if rep = get(t, c, http.MethodGet, v1+"/tiles/x/0/0"); rep.Code != CodeBadRequest || rep.Tile != nil {
				t.Fatalf("malformed tile address not refused: %+v", rep)
			}

			// Live ingest: add a document whose term pair exists nowhere in
			// the base corpus (apple ∈ {0,1,2}, kiwi ∈ {5,6}; the vocabulary
			// is frozen at snapshot time, so the marker must be in-vocab),
			// flush it visible, query it back, then tombstone it.
			rep = get(t, c, http.MethodPost, v1+"/add?text=apple+kiwi+kiwi")
			if !rep.OK || rep.Error != "" {
				t.Fatalf("/add = %+v", rep)
			}
			added := rep.Doc
			if rep = get(t, c, http.MethodPost, v1+"/flush"); !rep.OK {
				t.Fatalf("/flush = %+v", rep)
			}
			rep = get(t, c, http.MethodGet, v1+"/and?q=apple,kiwi")
			if rep.Count != 1 || rep.Docs[0] != added {
				t.Fatalf("added doc not served: %+v, want doc %d", rep, added)
			}
			rep = get(t, c, http.MethodPost, fmt.Sprintf("%s/delete?doc=%d", v1, added))
			if !rep.OK {
				t.Fatalf("/delete = %+v", rep)
			}
			if rep = get(t, c, http.MethodGet, v1+"/and?q=apple,kiwi"); rep.Status != http.StatusOK || rep.Count != 0 {
				t.Fatalf("tombstoned doc still served: %+v", rep)
			}
			// Deleting it again is refused.
			rep = get(t, c, http.MethodPost, fmt.Sprintf("%s/delete?doc=%d", v1, added))
			if rep.Status == http.StatusOK || rep.Error == "" || rep.OK {
				t.Fatalf("double delete not refused: %+v", rep)
			}

			// Maintenance: compact now, then persist under the save dir.
			if rep = get(t, c, http.MethodPost, v1+"/compact"); !rep.OK {
				t.Fatalf("/compact = %+v", rep)
			}
			rep = get(t, c, http.MethodPost, v1+"/save?path=run.live")
			if !rep.OK || rep.Error != "" {
				t.Fatalf("/save = %+v", rep)
			}
			if _, err := os.Stat(filepath.Join(saveDir, "run.live")); err != nil {
				t.Fatalf("save did not write inside the save dir: %v", err)
			}
			// Traversal out of the save dir is refused.
			rep = get(t, c, http.MethodPost, v1+"/save?path=..%2Fescape")
			if rep.OK || rep.Code != CodeBadRequest {
				t.Fatalf("traversal save not refused: %+v", rep)
			}

			// The data of /themes and /stats is the document itself, not a
			// Reply.
			var themes []core.Theme
			if err := json.Unmarshal(get(t, c, http.MethodGet, v1+"/themes").Raw, &themes); err != nil {
				t.Fatalf("/themes: %v", err)
			}
			var st serve.Stats
			if err := json.Unmarshal(get(t, c, http.MethodGet, v1+"/stats").Raw, &st); err != nil {
				t.Fatalf("/stats: %v", err)
			}
			if st.Queries == 0 {
				t.Fatalf("stats counted no queries after the sweep: %+v", st)
			}

			// Unknown routes 404 in the envelope.
			if rep = get(t, c, http.MethodGet, ts.URL+"/nosuch"); rep.Status != http.StatusNotFound || rep.Code != CodeNotFound {
				t.Fatalf("GET /nosuch = %+v, want 404 not_found", rep)
			}
		})
	}
}

// TestNamedSessionsAccumulate pins the session=NAME contract: one name keeps
// one session across requests, and the table is bounded.
func TestNamedSessionsAccumulate(t *testing.T) {
	d := New(buildService(t, 1), "")
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()
	c := ts.Client()

	// Two requests on one name reuse one Querier: the retained table holds
	// exactly one session.
	get(t, c, http.MethodGet, ts.URL+"/v1/term?q=apple&session=s1")
	get(t, c, http.MethodGet, ts.URL+"/v1/term?q=banana&session=s1")
	d.mu.Lock()
	n := len(d.sessions)
	d.mu.Unlock()
	if n != 1 {
		t.Fatalf("retained %d sessions after two requests on one name, want 1", n)
	}
	// Anonymous requests never enter the table.
	get(t, c, http.MethodGet, ts.URL+"/v1/term?q=apple")
	d.mu.Lock()
	n = len(d.sessions)
	d.mu.Unlock()
	if n != 1 {
		t.Fatalf("anonymous request retained a session: table has %d", n)
	}
}

// TestSessionTableBound pins the maxNamedSessions fallback: once the table is
// full, unseen names get throwaway sessions instead of growing memory.
func TestSessionTableBound(t *testing.T) {
	d := New(stubService{}, "")
	for i := 0; i < maxNamedSessions; i++ {
		d.session(fmt.Sprintf("s%d", i))
	}
	if len(d.sessions) != maxNamedSessions {
		t.Fatalf("table has %d sessions, want %d", len(d.sessions), maxNamedSessions)
	}
	d.session("overflow")
	if len(d.sessions) != maxNamedSessions {
		t.Fatalf("overflow name grew the table to %d", len(d.sessions))
	}
}

// TestServeLines drives the stdin line protocol end to end: queries, live
// ops, stats and quit, one JSON document per line.
func TestServeLines(t *testing.T) {
	d := New(buildService(t, 1), "")
	in := strings.NewReader(strings.Join([]string{
		"term apple",
		"and apple banana",
		"df banana",
		"add apple kiwi kiwi",
		"flush",
		"similar 0 3",
		"tile 0 0 0",
		"bogusop x",
		"stats",
		"quit",
		"term never-reached",
	}, "\n"))
	var out strings.Builder
	d.ServeLines(in, &out)

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 9 {
		t.Fatalf("got %d reply lines, want 9 (quit stops before the trailing term):\n%s", len(lines), out.String())
	}
	var rep Reply
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Op != "term" || rep.Count != 3 {
		t.Fatalf("line 1 = %+v, want term count 3", rep)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Op != "and" || rep.Count != 2 {
		t.Fatalf("line 2 = %+v, want and count 2", rep)
	}
	// The unknown op answers an in-band error and the loop continues.
	if err := json.Unmarshal([]byte(lines[7]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Error == "" {
		t.Fatalf("unknown op not refused: %+v", rep)
	}
	// Line 9 is the stats document, not a Reply envelope.
	var st serve.Stats
	if err := json.Unmarshal([]byte(lines[8]), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries == 0 {
		t.Fatalf("stats counted no queries: %+v", st)
	}
}
