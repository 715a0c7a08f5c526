package httpd

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"inspire/internal/corpus"
	"inspire/internal/query"
	"inspire/internal/serve"
)

// generatedService indexes a generated corpus of a few hundred documents, so
// a common term's answer runs to hundreds of postings.
func generatedService(t testing.TB, shards int) serve.Service {
	return buildServiceOf(t, corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: 200_000, Sources: 2, Seed: 46, VocabSize: 1500, Topics: 4,
	}), shards)
}

// poisonService hands out queriers that write -1 over every answer they
// returned once it stops being valid: at Release, and at the querier's next
// call (SetFilter is the first call of every request). A reply encoded after
// either point carries the -1s.
type poisonService struct{ serve.Service }

func (s poisonService) NewQuerier() serve.Querier {
	return &poisonQuerier{Querier: s.Service.NewQuerier()}
}

type poisonQuerier struct {
	serve.Querier
	docs  []int64
	posts []query.Posting
}

func (q *poisonQuerier) poison() {
	for i := range q.docs {
		q.docs[i] = -1
	}
	for i := range q.posts {
		q.posts[i] = query.Posting{Doc: -1, Freq: -1}
	}
	q.docs, q.posts = nil, nil
}

func (q *poisonQuerier) SetFilter(f serve.Filter) error {
	q.poison()
	return q.Querier.SetFilter(f)
}

func (q *poisonQuerier) Release() {
	q.poison()
	q.Querier.Release()
}

func (q *poisonQuerier) TermDocs(ctx context.Context, term string) []query.Posting {
	q.posts = q.Querier.TermDocs(ctx, term)
	return q.posts
}

func (q *poisonQuerier) And(ctx context.Context, terms ...string) []int64 {
	q.docs = q.Querier.And(ctx, terms...)
	return q.docs
}

func (q *poisonQuerier) Or(ctx context.Context, terms ...string) []int64 {
	q.docs = q.Querier.Or(ctx, terms...)
	return q.docs
}

func (q *poisonQuerier) ThemeDocs(ctx context.Context, cluster int) []int64 {
	q.docs = q.Querier.ThemeDocs(ctx, cluster)
	return q.docs
}

func (q *poisonQuerier) Near(ctx context.Context, x, y, r float64) []int64 {
	q.docs = q.Querier.Near(ctx, x, y, r)
	return q.docs
}

// TestBackToBackRequestsEncodeTheirOwnAnswers holds the reply path to the
// answer lifetime: on one named session, each request's body is its own
// answer, byte for byte what a fresh daemon answers, for requests sent back
// to back and for requests racing each other on the name. It fails if the
// reply is encoded after Release or after the next request's first call on
// the session.
func TestBackToBackRequestsEncodeTheirOwnAnswers(t *testing.T) {
	for _, shards := range []int{1, 3} {
		svc := generatedService(t, shards)
		top := svc.TopTerms(context.Background(), 4)
		targets := []string{
			"/v1/term?q=" + top[0],
			"/v1/term?q=" + top[3],
			"/v1/and?q=" + top[0] + "," + top[1],
			"/v1/or?q=" + top[2] + "," + top[3],
			"/v1/theme?cluster=0",
			"/v1/theme?cluster=1",
			"/v1/near?x=0&y=0&r=0.3",
			"/v1/near?x=0.2&y=-0.1&r=0.1",
		}
		// The reference: each target on a fresh, anonymous session.
		ref := New(svc, "").Mux()
		want := map[string]string{}
		for _, target := range targets {
			want[target] = serveBody(t, ref, target)
		}
		for i := 1; i < len(targets); i++ {
			if want[targets[i]] == want[targets[i-1]] {
				t.Fatalf("%d shards: %s and %s answer alike; the test needs different answers", shards, targets[i-1], targets[i])
			}
		}

		mux := New(poisonService{svc}, "").Mux()
		for round := 0; round < 3; round++ {
			for _, target := range targets {
				if got := serveBody(t, mux, target+"&session=s"); got != want[target] {
					t.Fatalf("%d shards: back to back, %s answered\n%s\nwant\n%s", shards, target, got, want[target])
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					target := targets[(g+i)%len(targets)]
					if got := serveBody(t, mux, target+"&session=s"); got != want[target] {
						t.Errorf("%d shards: racing on one session, %s answered\n%s\nwant\n%s", shards, target, got, want[target])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// serveBody serves one GET straight off the mux and returns the response body.
func serveBody(t *testing.T, mux http.Handler, target string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Error(err)
	}
	return string(b)
}

// readCost runs one warm read through Daemon.run and its encode and returns
// what a call allocates: objects and bytes.
func readCost(d *Daemon, ns *namedSession, op string, vals url.Values) (objs, bytes float64) {
	ctx := context.Background()
	var buf []byte
	call := func() { buf, _ = d.run(ctx, ns, op, vals, buf[:0]) }
	// Collect the set-up's garbage first: a cycle inside the window would
	// empty the pools and charge their refill to the read.
	runtime.GC()
	call()
	call()
	objs = testing.AllocsPerRun(100, call)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		call()
	}
	runtime.ReadMemStats(&after)
	return objs, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestDaemonReadAllocs pins the reply path's allocations: a warm routed
// term, and and or, and a warm single-store theme and near, through
// Daemon.run and the encode, allocate no more objects or bytes than a warm
// df, however large the answer. The answers are written into pooled
// buffers, the scatter's slots are session scratch and the reply goes into
// the caller's buffer. Under -race the pool drops Puts at random: each
// pooled answer (the router's and one per shard) gets poolAllocSlack
// objects, and bytes are not pinned.
func TestDaemonReadAllocs(t *testing.T) {
	for _, tc := range []struct {
		shards int
		ops    []string
	}{
		{3, []string{"term", "and", "or"}},
		{1, []string{"theme", "near"}},
	} {
		svc := generatedService(t, tc.shards)
		d := New(svc, "")
		ns := d.session("pin")
		top := svc.TopTerms(context.Background(), 3)
		queries := map[string]string{
			"df":    "q=" + top[0],
			"term":  "q=" + top[0],
			"and":   "q=" + top[0] + "," + top[1],
			"or":    "q=" + top[0] + "," + top[1] + "," + top[2],
			"theme": "cluster=0",
			"near":  "x=0&y=0&r=0.5",
		}
		cost := func(op string) (float64, float64) {
			vals, err := url.ParseQuery(queries[op])
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			out, _ = d.run(context.Background(), ns, op, vals, out)
			if op != "df" && strings.Contains(string(out), `"count":0,`) {
				t.Fatalf("%d shards: %s %s answered %.200s; the pin needs a non-empty answer", tc.shards, op, queries[op], out)
			}
			return readCost(d, ns, op, vals)
		}
		dfObjs, dfBytes := cost("df")
		for _, op := range tc.ops {
			objs, bytes := cost(op)
			if bound := dfObjs + float64((1+tc.shards)*poolAllocSlack); objs > bound {
				t.Errorf("%d shards: warm %s allocates %v objects/op, want <= %v (a warm df's %v)", tc.shards, op, objs, bound, dfObjs)
			}
			if poolAllocSlack == 0 && bytes > dfBytes {
				t.Errorf("%d shards: warm %s allocates %v B/op, want <= a warm df's %v", tc.shards, op, bytes, dfBytes)
			}
		}
	}
}

// TestSplitTermsMatchesFieldsFunc holds the allocation-free term splitter
// to the strings.FieldsFunc call it replaced.
func TestSplitTermsMatchesFieldsFunc(t *testing.T) {
	var dst []string
	for _, q := range []string{"", "a", "a,b", "a b", ",a,,b ,", "  ", "a,\xffb c", "é,ü ß"} {
		want := strings.FieldsFunc(q, func(r rune) bool { return r == ',' || r == ' ' })
		if dst = splitTerms(dst, q); !slices.Equal(dst, want) {
			t.Fatalf("splitTerms(%q) = %q, want %q", q, dst, want)
		}
	}
}

// BenchmarkDaemonRead measures one warm read through Daemon.run and its
// encode on a 3-shard store, per op: B/op and allocs/op are the reply
// path's garbage, which the pooled answers keep independent of the
// answer's size.
func BenchmarkDaemonRead(b *testing.B) {
	svc := generatedService(b, 3)
	d := New(svc, "")
	ns := d.session("bench")
	top := svc.TopTerms(context.Background(), 3)
	for _, tc := range []struct{ op, q string }{
		{"df", "q=" + top[0]},
		{"term", "q=" + top[0]},
		{"and", "q=" + top[0] + "," + top[1]},
		{"or", "q=" + top[0] + "," + top[1] + "," + top[2]},
		{"theme", "cluster=0"},
		{"near", "x=0&y=0&r=0.5"},
	} {
		b.Run(tc.op, func(b *testing.B) {
			vals, err := url.ParseQuery(tc.q)
			if err != nil {
				b.Fatal(err)
			}
			// Warm: the first read builds the tile pyramid and grows the
			// pooled buffers, which no later read repeats.
			var buf []byte
			for range 2 {
				buf, _ = d.run(context.Background(), ns, tc.op, vals, buf[:0])
			}
			b.ReportAllocs()
			for b.Loop() {
				buf, _ = d.run(context.Background(), ns, tc.op, vals, buf[:0])
			}
			b.ReportMetric(float64(len(buf)), "reply-B")
		})
	}
}
