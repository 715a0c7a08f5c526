package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
)

// fetch returns one response's status, headers and raw body.
func fetch(t *testing.T, c *http.Client, method, url string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestV1ErrorEnvelope pins the /v1 failure shape: op errors answer
// {"ok":false,"error":{code,message}} with a stable code and a non-200
// status.
func TestV1ErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(New(buildService(t, 1), "").Mux())
	defer ts.Close()
	c := ts.Client()

	code, _, raw := fetch(t, c, http.MethodGet, ts.URL+"/v1/similar?doc=99999&k=3")
	if code == http.StatusOK {
		t.Fatalf("/v1 op error kept status 200: %s", raw)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.OK || env.Error == nil || env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("v1 error envelope = %s", raw)
	}

	// Mutation guard under /v1: envelope with the stable code.
	code, _, raw = fetch(t, c, http.MethodGet, ts.URL+"/v1/add?text=x")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/add = %d, want 405", code)
	}
	env = Envelope{}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.OK || env.Error == nil || env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("405 envelope = %s", raw)
	}
}

// TestErrorCodeFollowsKindNotText pins that the wire code comes from the
// error's kind: parameters whose echoed text reads "context", "not found" or
// "disabled" are still malformed parameters (400 bad_request), a missing
// similarity target is 404 not_found, and an ended context is 500 internal —
// on one store and through the router. The stdin line carries no code.
func TestErrorCodeFollowsKindNotText(t *testing.T) {
	for _, shards := range []int{1, 3} {
		d := New(buildService(t, shards), "")
		ts := httptest.NewServer(d.Mux())
		c := ts.Client()
		for _, tc := range []struct {
			route  string
			status int
			code   string
		}{
			{"/v1/similar?doc=context", http.StatusBadRequest, CodeBadRequest},
			{"/v1/and?q=apple&facet=context", http.StatusBadRequest, CodeBadRequest},
			{"/v1/near?x=not%20found&y=0&r=1", http.StatusBadRequest, CodeBadRequest},
			{"/v1/theme?cluster=disabled", http.StatusBadRequest, CodeBadRequest},
			{"/v1/similar?doc=999999", http.StatusNotFound, CodeNotFound},
			{"/v1/tiles/9/0/0", http.StatusBadRequest, CodeBadRequest},
		} {
			code, _, raw := fetch(t, c, http.MethodGet, ts.URL+tc.route)
			var env Envelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("%d shards: %s: %v", shards, tc.route, err)
			}
			if code != tc.status || env.Error == nil || env.Error.Code != tc.code {
				t.Fatalf("%d shards: %s = %d %s, want %d %s", shards, tc.route, code, raw, tc.status, tc.code)
			}
		}
		ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		vals := url.Values{"doc": {"0"}, "k": {"3"}}
		if rep := d.execute(ctx, d.session(""), "similar", vals); rep.Error == "" || rep.code != CodeInternal {
			t.Fatalf("%d shards: cancelled similar = %+v, want an internal error", shards, rep)
		}

		var out bytes.Buffer
		d.ServeLines(strings.NewReader("similar context\n"), &out)
		if want := `{"op":"similar","count":0,"error":"doc \"context\" is not a document ID"}` + "\n"; out.String() != want {
			t.Fatalf("%d shards: line = %s, want %s", shards, out.String(), want)
		}
	}
}

// TestCancelledReadIsAnError pins the outcome of a read whose request
// context ended before it answered: a 500 internal envelope on every read
// route, mono and routed, filtered or not — never a 200 with an empty list.
func TestCancelledReadIsAnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shards := range []int{1, 3} {
		mux := New(buildService(t, shards), "").Mux()
		for _, route := range []string{
			"/v1/term?q=apple", "/v1/df?q=apple", "/v1/and?q=apple,banana",
			"/v1/or?q=apple,durian", "/v1/similar?doc=0&k=3", "/v1/theme?cluster=0",
			"/v1/near?x=0&y=0&r=2", "/v1/tiles/0/0/0?session=a",
		} {
			for _, filter := range []string{"", "&after=1"} {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodGet, route+filter, nil))
				var env Envelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("%d shards: %s%s: %v", shards, route, filter, err)
				}
				if rec.Code != http.StatusInternalServerError || env.OK || env.Error == nil || env.Error.Code != CodeInternal {
					t.Fatalf("%d shards: cancelled %s%s = %d %s, want 500 %s", shards, route, filter, rec.Code, rec.Body, CodeInternal)
				}
			}
		}
	}
}

// TestMalformedNumbersAreBadRequests pins that a numeric parameter that does
// not parse is refused on both transports — 400 bad_request over HTTP, an
// in-band error on the line protocol — instead of aliasing to
// document 0, cluster 0 or the origin as strconv's discarded zero value did.
// Non-finite numbers strconv does parse (NaN, ±Inf) are refused the same way:
// a NaN coordinate answered count 0 and an infinite radius the whole corpus.
// Only similar's k may be absent (default 5).
func TestMalformedNumbersAreBadRequests(t *testing.T) {
	d := New(buildService(t, 1), "")
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()
	c := ts.Client()

	for _, tc := range []struct {
		route string // HTTP form
		line  string // line-protocol form
		bad   bool
	}{
		{"/similar?doc=abc&k=3", "similar abc 3", true},
		{"/similar?k=3", "similar", true},
		{"/similar?doc=0&k=many", "similar 0 many", true},
		{"/similar?doc=0.5", "similar 0.5", true},
		{"/theme?cluster=first", "theme first", true},
		{"/theme", "theme", true},
		{"/near?x=left&y=0&r=1", "near left 0 1", true},
		{"/near?x=0&y=&r=1", "near 0 0", true},
		{"/near?x=0&y=0&r=1km", "near 0 0 1km", true},
		{"/near?x=NaN&y=0&r=1", "near NaN 0 1", true},
		{"/near?x=0&y=nan&r=1", "near 0 nan 1", true},
		{"/near?x=0&y=0&r=NaN", "near 0 0 NaN", true},
		{"/near?x=0&y=0&r=Inf", "near 0 0 Inf", true},
		{"/near?x=0&y=0&r=-Inf", "near 0 0 -Inf", true},
		{"/near?x=%2BInf&y=0&r=1", "near +Inf 0 1", true},
		{"/near?x=0&y=infinity&r=1", "near 0 infinity 1", true},
		{"/near?x=0&y=0&r=1e999", "near 0 0 1e999", true},
		{"/term?q=apple&after=yesterday", "", true},
		{"/similar?doc=0", "similar 0", false},
		{"/similar?doc=0&k=0", "similar 0 0", false},
		{"/theme?cluster=0", "theme 0", false},
		{"/near?x=0&y=0&r=2", "near 0 0 2", false},
		{"/near?x=-1e-3&y=2.5E0&r=.5", "near -1e-3 2.5E0 .5", false},
	} {
		code, _, raw := fetch(t, c, http.MethodGet, ts.URL+"/v1"+tc.route)
		var env Envelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("/v1%s: %v", tc.route, err)
		}
		if tc.bad && (code != http.StatusBadRequest || env.OK || env.Error == nil || env.Error.Code != CodeBadRequest) {
			t.Fatalf("/v1%s = %d %s, want 400 bad_request", tc.route, code, raw)
		}
		if !tc.bad && (code != http.StatusOK || !env.OK) {
			t.Fatalf("/v1%s = %d %s, want 200", tc.route, code, raw)
		}

		if tc.line == "" {
			continue
		}
		var out bytes.Buffer
		d.ServeLines(strings.NewReader(tc.line+"\n"), &out)
		var rep Reply
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("line %s: %v", tc.line, err)
		}
		if tc.bad != (rep.Error != "") || (tc.bad && rep.Count != 0) {
			t.Fatalf("line %s = %s, want error=%v", tc.line, out.Bytes(), tc.bad)
		}
	}

	// An absent k is the default of 5, not a refusal and not 0 hits.
	rep := get(t, c, http.MethodGet, ts.URL+"/v1/similar?doc=0")
	if want := min(5, len(e2eDocs)-1); rep.Count != want {
		t.Fatalf("/v1/similar?doc=0 answered %d hits, want the default k's %d", rep.Count, want)
	}
}

// TestHugeSimilarKIsBoundedByTheCorpus pins the uncapped, client-supplied k:
// k=1000000000 answers with every other scorable document — exactly what a k
// of the corpus size answers — on one store and through the router, and the
// request allocates by the candidates there are, never by k (16 GB of hits).
func TestHugeSimilarKIsBoundedByTheCorpus(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ts := httptest.NewServer(New(buildService(t, shards), "").Mux())
		c := ts.Client()
		hitsOf := func(route string) []byte {
			code, _, raw := fetch(t, c, http.MethodGet, ts.URL+route)
			var env Envelope
			if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK || !env.OK {
				t.Fatalf("%d shards: %s = %d %s (%v)", shards, route, code, raw, err)
			}
			var rep Reply
			if err := json.Unmarshal(env.Data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Count != len(rep.Hits) || rep.Count < 6 || rep.Count >= len(e2eDocs) {
				t.Fatalf("%d shards: %s answered %d hits over %d documents: %s", shards, route, rep.Count, len(e2eDocs), raw)
			}
			hits, err := json.Marshal(rep.Hits)
			if err != nil {
				t.Fatal(err)
			}
			return hits
		}
		want := hitsOf(fmt.Sprintf("/v1/similar?doc=0&k=%d&session=a", len(e2eDocs)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := hitsOf("/v1/similar?doc=0&k=1000000000&session=b")
		runtime.ReadMemStats(&after)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d shards: k=1000000000 answered %s, k=%d answered %s", shards, got, len(e2eDocs), want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("%d shards: k=1000000000 allocated %d bytes", shards, grew)
		}
		ts.Close()
	}
}

// TestAdmissionInFlightShedding pins the overload path: past MaxInFlight the
// daemon sheds with 429 + Retry-After and the stable overloaded code, and
// counts the shed.
func TestAdmissionInFlightShedding(t *testing.T) {
	d := New(stubService{}, "")
	d.SetLimits(Limits{MaxInFlight: 2})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()
	c := ts.Client()

	d.inflight.Add(2) // two requests parked in flight
	code, hdr, raw := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x")
	if code != http.StatusTooManyRequests {
		t.Fatalf("overloaded request = %d, want 429: %s", code, raw)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", hdr.Get("Retry-After"))
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.OK || env.Error == nil || env.Error.Code != CodeOverloaded {
		t.Fatalf("shed envelope = %s", raw)
	}
	if d.Shed() != 1 {
		t.Fatalf("Shed() = %d, want 1", d.Shed())
	}

	d.inflight.Add(-2)
	if code, _, _ := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x"); code != http.StatusOK {
		t.Fatalf("post-overload request = %d, want 200", code)
	}
}

// TestSessionRateLimit pins the per-session token bucket: one name's burst
// (max(1, rate) deep: one request at this rate) exhausts independently of
// other names.
func TestSessionRateLimit(t *testing.T) {
	d := New(stubService{}, "")
	d.SetLimits(Limits{SessionRate: 0.001})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()
	c := ts.Client()

	if code, _, raw := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x&session=a"); code != http.StatusOK {
		t.Fatalf("first request = %d: %s", code, raw)
	}
	code, _, raw := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x&session=a")
	if code != http.StatusTooManyRequests {
		t.Fatalf("burst-exhausted session = %d, want 429: %s", code, raw)
	}
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != CodeRateLimited {
		t.Fatalf("rate-limit envelope = %s", raw)
	}
	// A different name still has its own bucket.
	if code, _, _ := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x&session=b"); code != http.StatusOK {
		t.Fatalf("sibling session limited too: %d", code)
	}
	// Anonymous requests bypass session buckets entirely.
	if code, _, _ := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x"); code != http.StatusOK {
		t.Fatalf("anonymous request limited: %d", code)
	}
}

// TestGlobalRateLimit pins the daemon-wide bucket: past the global burst (one
// request at this rate) every request sheds regardless of session.
func TestGlobalRateLimit(t *testing.T) {
	d := New(stubService{}, "")
	d.SetLimits(Limits{GlobalRate: 0.001})
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()
	c := ts.Client()

	if code, _, _ := fetch(t, c, http.MethodGet, ts.URL+"/v1/term?q=x"); code != http.StatusOK {
		t.Fatal("first request not admitted")
	}
	code, _, raw := fetch(t, c, http.MethodGet, ts.URL+"/v1/df?q=x")
	if code != http.StatusTooManyRequests {
		t.Fatalf("global-exhausted request = %d, want 429: %s", code, raw)
	}
	// Observability stays up under overload: /stats and /themes bypass
	// admission entirely.
	if code, _, _ := fetch(t, c, http.MethodGet, ts.URL+"/v1/stats"); code != http.StatusOK {
		t.Fatalf("/v1/stats shed under overload: %d", code)
	}
}
