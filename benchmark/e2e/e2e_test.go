package e2e

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testEnv builds a plan environment over a small synthetic corpus and the
// real suite file.
func testEnv(t *testing.T) *PlanEnv {
	t.Helper()
	suite, err := LoadSuite(filepath.Join("..", "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for d := 0; d < 300; d++ {
		fmt.Fprintf(&b, "PMID- %d\nTI  - w%c%c title\nAB  -", d, 'a'+d%26, 'a'+d%7)
		for i := 0; i < 30; i++ {
			fmt.Fprintf(&b, " w%c%c", 'a'+rng.Intn(26), 'a'+rng.Intn(26))
		}
		b.WriteString("\n\n")
	}
	return &PlanEnv{Suite: suite, Truth: BuildTruth([][]byte{[]byte(b.String())})}
}

func TestSameSeedSamePlan(t *testing.T) {
	env := testEnv(t)
	for i := range env.Suite.Workloads {
		wl := &env.Suite.Workloads[i]
		a := PlanHash(env, wl, 7, 2*time.Second)
		if b := PlanHash(env, wl, 7, 2*time.Second); a != b {
			t.Errorf("%s: seed 7 drew two plans: %s, %s", wl.Name, a, b)
		}
		if c := PlanHash(env, wl, 8, 2*time.Second); a == c {
			t.Errorf("%s: seeds 7 and 8 drew the same plan", wl.Name)
		}
		for si := range wl.Streams {
			st := &wl.Streams[si]
			if st.Loop == LoopClosed {
				continue
			}
			x := Arrivals(st.Loop, st.Rate, SubSeed(7, wl.Name, si), time.Second)
			y := Arrivals(st.Loop, st.Rate, SubSeed(7, wl.Name, si), time.Second)
			z := Arrivals(st.Loop, st.Rate, SubSeed(8, wl.Name, si), time.Second)
			if !reflect.DeepEqual(x, y) {
				t.Errorf("%s/%s: one seed, two arrival schedules", wl.Name, st.Name)
			}
			if st.Loop == LoopOpen && reflect.DeepEqual(x, z) {
				t.Errorf("%s/%s: two seeds, one arrival schedule", wl.Name, st.Name)
			}
			if got, want := float64(len(x)), st.Rate; got < 0.8*want || got > 1.2*want {
				t.Errorf("%s/%s: %v arrivals in 1s at rate %v", wl.Name, st.Name, got, want)
			}
		}
	}
}

func TestPlanRequestsAreWellFormed(t *testing.T) {
	env := testEnv(t)
	th := NewThemes([]float64{0, 1, 2}, []float64{0, 1, 0})
	for i := range env.Suite.Workloads {
		wl := &env.Suite.Workloads[i]
		for si := range wl.Streams {
			g := NewGen(env, wl, si, 3, "timed", 0)
			for n := 0; n < 500; n++ {
				r := g.Next()
				url := r.URL("", th, "s", 5)
				if !strings.HasPrefix(url, "/v1/") || !strings.HasSuffix(url, "&session=s") || strings.ContainsAny(url, " \n") {
					t.Fatalf("%s: malformed URL %q", wl.Name, url)
				}
				for _, term := range r.Terms {
					if env.Truth.DF[term] == 0 {
						t.Fatalf("%s: drew term %q outside the vocabulary", wl.Name, term)
					}
				}
				if r.Op == OpAdd && r.Terms[0] != env.Sentinel() {
					t.Fatalf("%s: an added document lacks the sentinel", wl.Name)
				}
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	asc := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want int64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{19, 0.50, false, 0},
		{20, 0.50, true, 10},
		{100000, 0.99, true, 99000},
		{0, 0.50, false, 0},
	} {
		got, ok := Percentile(asc(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("Percentile(1..%d, %v) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, [3]float64{10, 23, 38}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, q2, q3 := Quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestMidMeanDropsTheOuterQuarters(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{1, 1, 2, 3, 4, 5, 100, 1000}, 3.5}, // 2, 3, 4, 5
	} {
		if got := MidMean(c.v); got != c.want {
			t.Errorf("MidMean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// A slice is measured by the requests that finished in it: 300 reads of
// 1 ms and 0.3 s of daemon CPU in the first second, 600 reads of 2 ms and
// 0.3 s in the second.
func TestSliceSeries(t *testing.T) {
	start := time.Unix(1000, 0)
	ph := &Phase{Start: start, Window: 2 * time.Second}
	for i := 0; i < 900; i++ {
		at, lat := time.Duration(i)*time.Second/300, time.Millisecond
		if i >= 300 {
			at, lat = time.Second+time.Duration(i-300)*time.Second/600, 2*time.Millisecond
		}
		ph.Samples = append(ph.Samples, Sample{Op: OpTerm, Start: int64(at), Lat: int64(lat)})
	}
	ph.Samples = append(ph.Samples, Sample{Op: OpTerm, Start: int64(time.Second / 2), Lat: 1, Fail: true})
	marks := []Mark{{start, 5, true}, {start.Add(time.Second), 5.3, true}, {start.Add(2 * time.Second), 5.6, true}}
	got := ph.SliceSeries(marks)
	near := func(a, b float64) bool { return a > b*0.99 && a < b*1.01 }
	for name, want := range map[string][2]float64{
		"qps": {300, 600}, "read_p50_ms": {1, 2}, "read_p95_ms": {1, 2}, "server_cpu_ms_per_req": {1, 0.5},
	} {
		if v := got[name]; len(v) != 2 || !near(v[0], want[0]) || !near(v[1], want[1]) {
			t.Errorf("%s per slice = %v, want %v", name, v, want)
		}
	}
}

func TestTruthFollowsTheTermRules(t *testing.T) {
	src := "PMID- 1\nTI  - The Apple-tree's apple, 2007 x\nAB  - apple banana of\n      banana cherry\n\n" +
		"PMID- 2\nTI  - 'banana' -date- 12ab\n\n"
	tr := BuildTruth([][]byte{[]byte(src)})
	want := map[string]int64{"apple-tree's": 1, "apple": 1, "banana": 2, "cherry": 1, "date": 1, "12ab": 1}
	if tr.Docs != 2 || !reflect.DeepEqual(tr.DF, want) {
		t.Errorf("docs %d, DF %v; want 2, %v", tr.Docs, tr.DF, want)
	}
	if tr.Ranked[0] != "banana" || tr.Ranked[1] != "12ab" || tr.CorpusBytes != int64(len(src)) {
		t.Errorf("ranked %v, bytes %d", tr.Ranked, tr.CorpusBytes)
	}
}

func TestCheckerCountsMatchingDocuments(t *testing.T) {
	env := testEnv(t)
	c := checker{truth: env.Truth, meta: env.Suite.Meta}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		req := Request{Op: OpTile}
		if rng.Intn(2) == 0 {
			f := c.meta.Facets[rng.Intn(len(c.meta.Facets))]
			req.Facet = f.Value(rng.Int63n(50))
		}
		if rng.Intn(2) == 0 {
			req.After = c.meta.TSBase + rng.Int63n(400)*c.meta.TSStep - 1
		}
		if rng.Intn(2) == 0 {
			req.Before = c.meta.TSBase + rng.Int63n(400)*c.meta.TSStep + 1
		}
		var brute int64
		for d := int64(0); d < c.truth.Docs; d++ {
			if c.matches(&req, d) {
				brute++
			}
		}
		if got := c.matching(&req); got != brute {
			t.Fatalf("matching(%+v) = %d, brute force %d", req, got, brute)
		}
	}
}

func TestCheckerJudgesReplies(t *testing.T) {
	env := testEnv(t)
	c := checker{truth: env.Truth, meta: env.Suite.Meta}
	term := env.Truth.Ranked[0]
	df := env.Truth.DF[term]
	for _, tc := range []struct {
		name string
		req  Request
		rep  reply
		ok   bool
	}{
		{"df right", Request{Op: OpDF, Terms: []string{term}}, reply{DF: df}, true},
		{"df wrong", Request{Op: OpDF, Terms: []string{term}}, reply{DF: df - 1}, false},
		{"docs unsorted", Request{Op: OpTheme}, reply{Count: 2, Docs: []int64{5, 3}}, false},
		{"count mismatch", Request{Op: OpNear}, reply{Count: 3, Docs: []int64{1, 2}}, false},
		{"facet kept", Request{Op: OpTheme, Facet: "source=s1"}, reply{Count: 2, Docs: []int64{1, 5}}, true},
		{"facet broken", Request{Op: OpTheme, Facet: "source=s1"}, reply{Count: 2, Docs: []int64{1, 6}}, false},
		{"scores fall", Request{Op: OpSimilar, K: 2}, reply{Count: 2, Hits: []hit{{1, 0.9}, {2, 0.8}}}, true},
		{"scores rise", Request{Op: OpSimilar, K: 2}, reply{Count: 2, Hits: []hit{{1, 0.8}, {2, 0.9}}}, false},
		{"too many hits", Request{Op: OpSimilar, K: 1}, reply{Count: 2, Hits: []hit{{1, 0.9}, {2, 0.8}}}, false},
		{"root tile", Request{Op: OpTile}, reply{Tile: &tileDocs{env.Truth.Docs}}, true},
		{"root tile short", Request{Op: OpTile}, reply{Tile: &tileDocs{env.Truth.Docs - 1}}, false},
	} {
		if msg := c.reply(&tc.req, &tc.rep); (msg == "") != tc.ok {
			t.Errorf("%s: verdict %q, want ok=%v", tc.name, msg, tc.ok)
		}
	}
	// Under ingest a count may exceed the base corpus, never fall below it.
	c.dynamic = true
	req := Request{Op: OpDF, Terms: []string{term}}
	if msg := c.reply(&req, &reply{DF: df + 3}); msg != "" {
		t.Errorf("dynamic df above base: %s", msg)
	}
	if msg := c.reply(&req, &reply{DF: df - 1}); msg == "" {
		t.Error("dynamic df below base passed")
	}
}

// The end-to-end half must not depend on the program's packages: it judges
// them, and must keep compiling whatever they are refactored into.
func TestNoInternalImports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "inspire/internal") {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}
