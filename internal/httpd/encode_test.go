package httpd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"inspire/internal/query"
	"inspire/internal/serve"
	"inspire/internal/tiles"
)

// jsonLine is the reference encoding of one response body: what
// json.NewEncoder(w).Encode(v) — the reply path before appendReply — wrote.
func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encoding of %+v: %v", v, err)
	}
	return buf.Bytes()
}

// checkEncoding holds appendReply, the line protocol's bare encoding and
// HTTP's enveloped one against encoding/json for one reply, byte for byte.
func checkEncoding(t testing.TB, rep *Reply) {
	t.Helper()
	want, wantErr := json.Marshal(rep)
	// A dirty, non-empty destination: the encoder must only append.
	got, gotErr := appendReply([]byte("prefix"), rep)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("json.Marshal error %v, appendReply error %v for %+v", wantErr, gotErr, rep)
	}
	if wantErr == nil && string(got) != "prefix"+string(want) {
		t.Fatalf("appendReply diverges from json.Marshal\n got: %s\nwant: prefix%s", got, want)
	}

	// The stdin line: the reply and a newline; an in-band error when the
	// reply cannot be encoded.
	wantLine := []byte(nil)
	if wantErr == nil {
		wantLine = jsonLine(t, rep)
	} else {
		wantLine = jsonLine(t, Reply{Op: rep.Op, Error: gotErr.Error()})
	}
	if line := appendLine([]byte("prefix"), rep); string(line) != "prefix"+string(wantLine) {
		t.Fatalf("line = %s\nwant prefix%s", line, wantLine)
	}

	// The HTTP body: the envelope encoding/json builds around the same bytes.
	v1, status := appendEnvelope(nil, rep)
	env := Envelope{OK: true, Data: want}
	wantStatus := http.StatusOK
	switch {
	case rep.Error != "":
		code := errCode(rep.Error)
		env, wantStatus = Envelope{Error: &ErrorInfo{Code: code, Message: rep.Error}}, httpStatus(code)
	case wantErr != nil:
		env, wantStatus = Envelope{Error: &ErrorInfo{Code: CodeInternal, Message: gotErr.Error()}}, http.StatusInternalServerError
	}
	if wantV1 := jsonLine(t, env); !bytes.Equal(v1, wantV1) || status != wantStatus {
		t.Fatalf("/v1 body = %d %s\nwant %d %s", status, v1, wantStatus, wantV1)
	}
}

// nasty is text the string escaper must get right: HTML-sensitive bytes,
// quotes and backslashes, every control byte class, DEL, U+2028/U+2029,
// multi-byte runes, and invalid UTF-8 (a lone continuation byte, a truncated
// sequence, a surrogate half).
const nasty = "<script>&\"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é漢😀\x80\xe2\x82\xed\xa0\x80 end"

// FuzzAppendReply is the reply encoder's oracle: a Reply assembled from the
// fuzz input — every slice nil, empty or filled, every omitempty field in
// both states, hostile strings, floats across the exponent cutoffs and
// non-finite, integers of every sign and size — must encode exactly as
// encoding/json encodes it, bare and enveloped.
func FuzzAppendReply(f *testing.F) {
	// The reply shapes TestEndToEndSweep sees, one seed each: postings,
	// docs, hits, a full tile, df, a write acknowledgement, an op error, the
	// empty reply — then the hostile corners.
	const (
		filled  = 0b10 // a slice's two shape bits: 0 nil, 1 empty, 2-3 filled
		tileBit = 1 << 16
		dfBit   = 1 << 17
		docBit  = 1 << 18
		okBit   = 1 << 19
		errBit  = 1 << 20
		lblBit  = 1 << 21
	)
	f.Add(uint32(filled), uint8(3), "term", "", "", 0.5, int64(1))
	f.Add(uint32(filled<<2), uint8(40), "and", "", "", 0.5, int64(2))
	f.Add(uint32(filled<<4), uint8(31), "similar", "", "", 1.5, int64(3))
	f.Add(uint32(tileBit|lblBit|0x3ff<<6), uint8(64), "tile", "", "apple banana", 0.5, int64(4))
	f.Add(uint32(tileBit), uint8(0), "tile", "", "", 0.5, int64(5))
	f.Add(uint32(dfBit), uint8(0), "df", "", "", 0.5, int64(6))
	f.Add(uint32(docBit|okBit), uint8(0), "add", "", "", 0.5, int64(7))
	f.Add(uint32(errBit), uint8(0), "similar", "serve: document 99999 not found", "", 0.5, int64(8))
	f.Add(uint32(0), uint8(0), "flush", "", "", 0.5, int64(9))
	f.Add(uint32(0x5555|errBit), uint8(2), nasty, nasty, "", -1e-6, int64(10))
	f.Add(uint32(tileBit|lblBit|0xaaaa), uint8(5), "tile", "", nasty, 123456789.125, int64(11))
	f.Add(uint32(filled<<4), uint8(1), "similar", "", "", math.NaN(), int64(12))
	f.Add(uint32(filled<<4), uint8(2), "similar", "", "", math.Copysign(0, -1), int64(13))

	f.Fuzz(func(t *testing.T, shape uint32, n uint8, op, msg, label string, score float64, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		// Integers spread over sign and magnitude: small, zero, negative,
		// and the 64-bit extremes.
		num := func() int64 {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return -rng.Int63()
			case 2:
				return rng.Int63()
			case 3:
				return math.MinInt64
			case 4:
				return math.MaxInt64
			case 5:
				return rng.Int63n(2e9) // both sides of appendInt's own range
			default:
				return int64(rng.Intn(20000)) - 100
			}
		}
		// size maps a slice's two shape bits to nil (-1), empty (0) or n
		// elements.
		size := func(slot uint) int {
			switch shape >> (2 * slot) & 3 {
			case 0:
				return -1
			case 1:
				return 0
			default:
				return int(n)
			}
		}
		ints := func(slot uint) []int64 {
			k := size(slot)
			if k < 0 {
				return nil
			}
			out := make([]int64, k)
			for i := range out {
				out[i] = num()
			}
			return out
		}
		rep := Reply{Op: op, Count: int(num()), Docs: ints(1)}
		if k := size(0); k >= 0 {
			rep.Postings = make([]query.Posting, k)
			for i := range rep.Postings {
				rep.Postings[i] = query.Posting{Doc: num(), Freq: num()}
			}
		}
		if k := size(2); k >= 0 {
			rep.Hits = make([]query.Hit, k)
			for i := range rep.Hits {
				// Walk the score through 1e-7 … 1e22, across both exponent
				// cutoffs of the float formatter.
				rep.Hits[i] = query.Hit{Doc: num(), Score: score * math.Pow(10, float64(i%30-7))}
			}
		}
		if shape&tileBit != 0 {
			tile := &serve.TileResult{Z: int(num()), X: int(num()), Y: int(num()), Docs: num(), Grid: int(num()), Exemplars: ints(7)}
			if k := size(3); k >= 0 {
				tile.Density = make([]uint32, k)
				for i := range tile.Density {
					tile.Density[i] = uint32(num())
				}
			}
			if k := size(4); k >= 0 {
				tile.Themes = make([]serve.TileTheme, k)
				for i := range tile.Themes {
					tile.Themes[i] = serve.TileTheme{Cluster: num(), Docs: num()}
					if shape&lblBit != 0 && i%2 == 0 {
						tile.Themes[i].Label = label
					}
				}
			}
			if k := size(5); k >= 0 {
				tile.Times = make([]tiles.TimeCount, k)
				for i := range tile.Times {
					tile.Times[i] = tiles.TimeCount{Bucket: num(), Docs: num()}
				}
			}
			if k := size(6); k >= 0 {
				tile.Facets = make([]tiles.FacetCount, k)
				for i := range tile.Facets {
					tile.Facets[i] = tiles.FacetCount{Facet: label + strconv.Itoa(i), Docs: num()}
				}
			}
			rep.Tile = tile
		}
		if shape&dfBit != 0 {
			rep.DF = num()
		}
		if shape&docBit != 0 {
			rep.Doc = num()
		}
		rep.OK = shape&okBit != 0
		if shape&errBit != 0 {
			rep.Error = msg
		}
		checkEncoding(t, &rep)
	})
}

// TestAppendReplyServedShapes runs every op of the line protocol and the
// HTTP surface against a real sharded service and holds each reply it
// produces to the reference encoding — the shapes the fuzz seeds imitate,
// taken from the source.
func TestAppendReplyServedShapes(t *testing.T) {
	d := New(buildService(t, 3), "")
	ns := d.session("")
	ctx := context.Background()
	for _, tc := range []struct{ op, query string }{
		{"term", "q=apple"},
		{"term", "q=nosuchterm"},
		{"df", "q=banana"},
		{"and", "q=apple,banana"},
		{"or", "q=apple,durian"},
		{"or", "q=nosuchterm"},
		{"similar", "doc=0&k=3"},
		{"similar", "doc=99999"},
		{"theme", "cluster=0"},
		{"near", "x=0&y=0&r=2"},
		{"tile", "z=0&x=0&y=0"},
		{"tile", "z=9&x=0&y=0"},
		{"tile", "z=0&x=0&y=0&facet=nokey"},
		{"add", "text=apple+kiwi&ts=1000&facet=source%3Ds1"},
		{"delete", "doc=1"},
		{"delete", "doc=x"},
		{"bogus", ""},
	} {
		vals, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		rep := d.run(ctx, ns, tc.op, vals, false)
		checkEncoding(t, &rep)
	}
	for _, op := range []string{"flush", "compact", "save"} {
		rep := d.live(ctx, op, "")
		checkEncoding(t, &rep)
	}
}

// fillValue sets every field reachable from v to a non-zero value: one
// element per slice, every pointer allocated.
func fillValue(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint32:
		v.SetUint(7)
	case reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString("seven")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillValue(t, v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i))
		}
	default:
		t.Fatalf("Reply reaches a %s: teach appendReply and this test about it", v.Type())
	}
}

// TestAppendReplyCoversEveryField is the guard a hand-written encoder needs:
// a field added to Reply, serve.TileResult or any of their element types is
// picked up by encoding/json through its tag but not by appendReply, and
// this test fails until the encoder learns it.
func TestAppendReplyCoversEveryField(t *testing.T) {
	var rep Reply
	fillValue(t, reflect.ValueOf(&rep).Elem())
	rep.Error = "" // an op error replaces the payload over HTTP; check it apart
	checkEncoding(t, &rep)
	rep.Error = "seven"
	checkEncoding(t, &rep)
}

// TestAppendIntMatchesStrconv walks appendInt over every digit-count
// boundary of its own range, the hand-over to strconv on both sides, and a
// random sample of each decade.
func TestAppendIntMatchesStrconv(t *testing.T) {
	check := func(n int64) {
		t.Helper()
		if got, want := string(appendInt([]byte("x"), n)), "x"+strconv.FormatInt(n, 10); got != want {
			t.Fatalf("appendInt(%d) = %q, want %q", n, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int64{math.MinInt64, -1e9, -10, -1, math.MaxInt64} {
		check(n)
	}
	for p := int64(1); p <= 1e10; p *= 10 {
		for _, n := range []int64{p - 1, p, p + 1, 2*p - 1, 9 * p} {
			check(n)
		}
		for i := 0; i < 200; i++ {
			check(p + rng.Int63n(9*p))
		}
	}
}

// termReply is a posting-heavy reply of the size lookup-hot serves.
func termReply(n int) *Reply {
	rep := &Reply{Op: "term", Count: n, Postings: make([]query.Posting, n)}
	for i := range rep.Postings {
		rep.Postings[i] = query.Posting{Doc: int64(i * 5), Freq: int64(1 + i%7)}
	}
	return rep
}

// TestEncodeReplyAllocFree pins the reply path's steady state: once a
// pooled buffer has grown to the reply size, encoding a 3000-posting reply
// with its envelope allocates nothing.
func TestEncodeReplyAllocFree(t *testing.T) {
	rep := termReply(3000)
	bb := newBody()
	defer bb.release()
	bb.b, _ = appendEnvelope(bb.b, rep) // grow the buffer once
	got := testing.AllocsPerRun(100, func() {
		bb.b, _ = appendEnvelope(bb.b[:0], rep)
	})
	if got != 0 {
		t.Fatalf("encoding a warm 3000-posting reply allocates %v objects/op, want 0", got)
	}
}

// TestOversizedBodyNotPooled pins the pool's ceiling: a buffer grown past
// maxPooledBody is dropped instead of being kept for the next request.
func TestOversizedBodyNotPooled(t *testing.T) {
	big := &body{b: make([]byte, 0, maxPooledBody+1)}
	big.release()
	for i := 0; i < 64; i++ {
		if bb := newBody(); cap(bb.b) > maxPooledBody {
			t.Fatalf("pool handed back a %d-byte buffer, ceiling is %d", cap(bb.b), maxPooledBody)
		}
	}
}

// nanService answers similarity queries with a non-finite score — a value
// JSON cannot spell.
type nanService struct{ stubService }
type nanQuerier struct{ stubQuerier }

func (nanService) NewQuerier() serve.Querier { return nanQuerier{} }
func (nanQuerier) Similar(context.Context, int64, int) ([]query.Hit, error) {
	return []query.Hit{{Doc: 1, Score: 0.5}, {Doc: 2, Score: math.NaN()}}, nil
}

// TestUnencodableReply pins the one outcome of a reply that cannot be
// encoded, on both transports: HTTP 500 with a complete well-formed error
// body and its exact Content-Length, an in-band error line on stdin, and
// nothing of the partial encoding on either.
func TestUnencodableReply(t *testing.T) {
	d := New(nanService{}, "")
	ts := httptest.NewServer(d.Mux())
	defer ts.Close()

	code, hdr, raw := fetch(t, ts.Client(), http.MethodGet, ts.URL+"/v1/similar?doc=0")
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("/v1 body %q: %v", raw, err)
	}
	if code != http.StatusInternalServerError || env.OK || env.Error == nil || env.Error.Code != CodeInternal || len(env.Data) != 0 {
		t.Fatalf("/v1 unencodable reply = %d %s", code, raw)
	}
	if hdr.Get("Content-Length") != strconv.Itoa(len(raw)) {
		t.Fatalf("/v1 Content-Length %q for a %d-byte body", hdr.Get("Content-Length"), len(raw))
	}

	var out strings.Builder
	d.ServeLines(strings.NewReader("similar 0\nsimilar 0\n"), &out)
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("line protocol wrote %q, want two lines", out.String())
	}
	for _, line := range lines {
		var rep Reply
		if err := json.Unmarshal([]byte(line), &rep); err != nil || rep.Error == "" || len(rep.Hits) != 0 {
			t.Fatalf("line protocol unencodable reply = %q (%v)", line, err)
		}
	}
}

// TestReplyFraming pins what the one-Write reply path promises the
// transport on a large reply: an exact Content-Length (no chunking) and the
// trailing newline encoding/json always wrote.
func TestReplyFraming(t *testing.T) {
	ts := httptest.NewServer(New(buildService(t, 1), "").Mux())
	defer ts.Close()
	for _, route := range []string{"/v1/term?q=apple", "/v1/stats", "/v1/themes", "/v1/similar?doc=99999", "/v1/nosuch", "/term?q=apple"} {
		resp, err := ts.Client().Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", route, resp.ContentLength, resp.TransferEncoding, len(raw))
		}
		if !bytes.HasSuffix(raw, []byte("\n")) || bytes.Count(raw, []byte("\n")) != 1 {
			t.Fatalf("%s: body %q is not one newline-terminated JSON document", route, raw)
		}
	}
}

// BenchmarkEncodeReply measures the reply encoder on the shapes the serving
// benchmark's workloads produce, into a warm buffer with the /v1 envelope;
// the json sub-benchmarks are the reflection path it replaced (Marshal, then
// the envelope around the RawMessage). MB/s is reply bytes produced.
func BenchmarkEncodeReply(b *testing.B) {
	docs := &Reply{Op: "or", Count: 3000, Docs: make([]int64, 3000)}
	for i := range docs.Docs {
		docs.Docs[i] = int64(i * 5)
	}
	tile := &Reply{Op: "tile", Count: 16103, Tile: &serve.TileResult{
		Z: 2, X: 1, Y: 3, Docs: 16103, Grid: 8, Density: make([]uint32, 64),
		Exemplars: []int64{3, 17, 21, 40, 44, 58, 63, 90},
	}}
	for i := range tile.Tile.Density {
		tile.Tile.Density[i] = uint32(i * 37)
	}
	for i := 0; i < 8; i++ {
		tile.Tile.Themes = append(tile.Tile.Themes, serve.TileTheme{Cluster: int64(i), Docs: int64(2000 - 100*i), Label: "cardiba beba lomira"})
		tile.Tile.Facets = append(tile.Tile.Facets, tiles.FacetCount{Facet: "source=s" + strconv.Itoa(i), Docs: int64(4000 - i)})
	}
	for i := 0; i < 60; i++ {
		tile.Tile.Times = append(tile.Tile.Times, tiles.TimeCount{Bucket: int64(11574 + i), Docs: int64(24 + i)})
	}
	hits := &Reply{Op: "similar", Count: 10, Hits: make([]query.Hit, 10)}
	for i := range hits.Hits {
		hits.Hits[i] = query.Hit{Doc: int64(1000 + 13*i), Score: 0.98765432 / float64(i+1)}
	}
	for _, tc := range []struct {
		name string
		rep  *Reply
	}{
		{"term3000", termReply(3000)},
		{"docs3000", docs},
		{"tile", tile},
		{"hits10", hits},
	} {
		b.Run(tc.name, func(b *testing.B) {
			buf, _ := appendEnvelope(nil, tc.rep)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for b.Loop() {
				buf, _ = appendEnvelope(buf[:0], tc.rep)
			}
		})
		b.Run(tc.name+"-json", func(b *testing.B) {
			var buf bytes.Buffer
			b.SetBytes(int64(len(jsonLine(b, Envelope{OK: true, Data: jsonLine(b, tc.rep)}))))
			b.ReportAllocs()
			for b.Loop() {
				buf.Reset()
				raw, err := json.Marshal(tc.rep)
				if err != nil {
					b.Fatal(err)
				}
				if err := json.NewEncoder(&buf).Encode(Envelope{OK: true, Data: raw}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
