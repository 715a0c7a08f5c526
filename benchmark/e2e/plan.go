package e2e

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Op is one operation of the daemon's /v1 surface.
type Op uint8

// The operations the plans draw.
const (
	OpTerm Op = iota
	OpDF
	OpAnd
	OpOr
	OpSimilar
	OpTheme
	OpNear
	OpTile
	OpAdd
	OpDelete
	NumOps
)

var opNames = [NumOps]string{"term", "df", "and", "or", "similar", "theme", "near", "tile", "add", "delete"}

var opByName = func() map[string]Op {
	m := map[string]Op{}
	for i, n := range opNames {
		m[n] = Op(i)
	}
	return m
}()

func (o Op) String() string { return opNames[o] }

// IsWrite reports whether the op mutates the store.
func (o Op) IsWrite() bool { return o == OpAdd || o == OpDelete }

// Request is one planned operation. It holds only what the seed decides;
// what depends on the server (theme coordinates, the ID of the document a
// delete removes) is resolved when the request is sent.
type Request struct {
	Op      Op
	Terms   []string // term, df: one; and, or: two; add: the document's words
	Doc     int64    // similar target
	K       int
	Theme   int     // theme: cluster draw; near: the centroid the circle is near
	DX, DY  float64 // near: offset from the centroid, in theme-box diagonals
	R       float64 // near: radius, in theme-box diagonals
	Z, X, Y int     // tile address
	Facet   string  // "key=value" filter (add: the document's facet), or ""
	After   int64   // time filter bounds, 0 = open
	Before  int64
	TS      int64 // add: the document's timestamp
}

// Themes is what a client learns from /v1/themes: the centroids and the
// diagonal of their bounding box.
type Themes struct {
	X, Y []float64
	Diag float64
}

// NewThemes builds the table from centroid coordinates.
func NewThemes(x, y []float64) *Themes {
	minX, maxX, minY, maxY := math.Inf(1), math.Inf(-1), math.Inf(1), math.Inf(-1)
	for i := range x {
		minX, maxX = math.Min(minX, x[i]), math.Max(maxX, x[i])
		minY, maxY = math.Min(minY, y[i]), math.Max(maxY, y[i])
	}
	return &Themes{X: x, Y: y, Diag: math.Hypot(maxX-minX, maxY-minY)}
}

// Cluster resolves the request's theme draw to a cluster of the table.
func (r *Request) Cluster(th *Themes) int { return r.Theme % len(th.X) }

// Circle resolves a near request to coordinates: a centre offset from its
// theme's centroid, and a radius.
func (r *Request) Circle(th *Themes) (x, y, radius float64) {
	c := r.Cluster(th)
	return th.X[c] + r.DX*th.Diag, th.Y[c] + r.DY*th.Diag, r.R * th.Diag
}

// URL renders the request against a daemon. doc is the document a delete
// removes.
func (r *Request) URL(base string, th *Themes, session string, doc int64) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("/v1/")
	switch r.Op {
	case OpTile:
		fmt.Fprintf(&b, "tiles/%d/%d/%d?", r.Z, r.X, r.Y)
	default:
		b.WriteString(r.Op.String())
		b.WriteByte('?')
	}
	switch r.Op {
	case OpTerm, OpDF:
		b.WriteString("q=" + url.QueryEscape(r.Terms[0]))
	case OpAnd, OpOr:
		b.WriteString("q=" + url.QueryEscape(strings.Join(r.Terms, ",")))
	case OpSimilar:
		fmt.Fprintf(&b, "doc=%d&k=%d", r.Doc, r.K)
	case OpTheme:
		fmt.Fprintf(&b, "cluster=%d", r.Cluster(th))
	case OpNear:
		x, y, radius := r.Circle(th)
		b.WriteString("x=" + strconv.FormatFloat(x, 'g', -1, 64))
		b.WriteString("&y=" + strconv.FormatFloat(y, 'g', -1, 64))
		b.WriteString("&r=" + strconv.FormatFloat(radius, 'g', -1, 64))
	case OpAdd:
		fmt.Fprintf(&b, "text=%s&ts=%d", url.QueryEscape(strings.Join(r.Terms, " ")), r.TS)
	case OpDelete:
		fmt.Fprintf(&b, "doc=%d", doc)
	}
	if r.Facet != "" {
		b.WriteString("&facet=" + url.QueryEscape(r.Facet))
	}
	if r.After != 0 {
		fmt.Fprintf(&b, "&after=%d", r.After)
	}
	if r.Before != 0 {
		fmt.Fprintf(&b, "&before=%d", r.Before)
	}
	b.WriteString("&session=" + session)
	return b.String()
}

// PlanEnv is everything besides the seed that a plan is drawn from.
type PlanEnv struct {
	Suite *Suite
	Truth *Truth
}

// Sentinel is the rare term every added document carries, so one count
// tells whether every acknowledged write is visible.
func (e *PlanEnv) Sentinel() string { return e.Truth.Ranked[len(e.Truth.Ranked)-1] }

// SubSeed derives the seed of one random stream from the run seed and the
// names of what it drives, so streams stay independent of each other and of
// the order they are created in.
func SubSeed(seed int64, parts ...any) int64 {
	h := sha256.Sum256([]byte(fmt.Sprint(append([]any{seed}, parts...)...)))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

// Gen draws the endless request sequence of one connection (closed loop) or
// of one arrival schedule (open and paced loops).
type Gen struct {
	env   *PlanEnv
	st    *Stream
	rng   *rand.Rand
	total int
	hot   []int64
	adds  int64
}

// NewGen seeds a generator for one stream of a workload. phase separates
// the warm-up, the timed window and the ladder rungs; conn separates the
// connections of a closed loop.
func NewGen(env *PlanEnv, wl *Workload, stream int, seed int64, phase string, conn int) *Gen {
	st := &wl.Streams[stream]
	g := &Gen{env: env, st: st, rng: rand.New(rand.NewSource(SubSeed(seed, wl.Name, stream, phase, conn)))}
	for _, m := range st.Mix {
		g.total += m.W
	}
	if st.HotDocs > 0 {
		// The hot set belongs to the workload, not to a phase or connection.
		hr := rand.New(rand.NewSource(SubSeed(seed, wl.Name, stream, "hot")))
		for i := 0; i < st.HotDocs; i++ {
			g.hot = append(g.hot, hr.Int63n(env.Truth.Docs))
		}
	}
	return g
}

func (g *Gen) term() string {
	ranked := g.env.Truth.Ranked
	lo, hi := g.st.Terms.Lo, min(g.st.Terms.Hi, len(ranked))
	lo = min(lo, hi-1)
	return ranked[lo+int(float64(hi-lo)*math.Pow(g.rng.Float64(), g.st.Terms.Skew))]
}

func (g *Gen) facet() string {
	fs := g.env.Suite.Meta.Facets
	return fs[g.rng.Intn(len(fs))].Value(g.rng.Int63())
}

// Next draws the next request.
func (g *Gen) Next() Request {
	pick := g.rng.Intn(g.total)
	var item MixItem
	for _, item = range g.st.Mix {
		if pick -= item.W; pick < 0 {
			break
		}
	}
	r := Request{Op: opByName[item.Op]}
	meta, docs := g.env.Suite.Meta, g.env.Truth.Docs
	switch r.Op {
	case OpTerm, OpDF:
		r.Terms = []string{g.term()}
	case OpAnd, OpOr:
		r.Terms = []string{g.term(), g.term()}
	case OpSimilar:
		r.K = g.st.K
		if len(g.hot) > 0 {
			r.Doc = g.hot[g.rng.Intn(len(g.hot))]
		} else {
			r.Doc = g.rng.Int63n(docs)
		}
	case OpTheme:
		r.Theme = g.rng.Intn(1 << 16)
	case OpNear:
		r.Theme = g.rng.Intn(1 << 16)
		r.R = g.st.NearR[0] + (g.st.NearR[1]-g.st.NearR[0])*g.rng.Float64()
		r.DX, r.DY = (g.rng.Float64()-0.5)*r.R, (g.rng.Float64()-0.5)*r.R
	case OpTile:
		r.Z = g.rng.Intn(7)
		r.X, r.Y = g.rng.Intn(1<<r.Z), g.rng.Intn(1<<r.Z)
	case OpAdd:
		n := g.st.AddTerms[0] + g.rng.Intn(g.st.AddTerms[1]-g.st.AddTerms[0]+1)
		r.Terms = []string{g.env.Sentinel()}
		for len(r.Terms) < n {
			r.Terms = append(r.Terms, g.term())
		}
		seq := docs + g.adds
		g.adds++
		r.TS = meta.TSBase + seq*meta.TSStep
		r.Facet = meta.Facets[0].Value(seq)
	}
	if r.Op.IsWrite() || r.Op == OpDF {
		return r
	}
	switch {
	case item.Filter == "facet" || (item.Filter == "" && g.rng.Float64() < g.st.FacetFrac):
		r.Facet = g.facet()
	case item.Filter == "time":
		from := g.rng.Int63n(docs)
		span := docs/16 + g.rng.Int63n(docs/4+1)
		r.After = meta.TSBase + from*meta.TSStep
		r.Before = meta.TSBase + (from+span)*meta.TSStep
	}
	return r
}

// Arrivals returns the due times of an open or paced stream over a window,
// as offsets from its start: exponential gaps (a Poisson process) for an
// open loop, even gaps for a paced one.
func Arrivals(loop string, rate float64, seed int64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	at := 0.0
	for {
		if loop == LoopOpen {
			at += rng.ExpFloat64() / rate
		} else {
			at += 1 / rate
		}
		due := time.Duration(at * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, due)
	}
}

// hashedPrefix is how many requests of each generator the plan hash covers.
const hashedPrefix = 1024

// PlanHash fingerprints what the seed decides for a workload's timed
// window: the arrival schedule of every open or paced stream and the first
// requests of every generator. The same seed must give the same hash.
func PlanHash(env *PlanEnv, wl *Workload, seed int64, window time.Duration) string {
	h := sha256.New()
	for si := range wl.Streams {
		st := &wl.Streams[si]
		conns := st.Conns
		if st.Loop != LoopClosed {
			conns = 1
			for _, due := range Arrivals(st.Loop, st.Rate, SubSeed(seed, wl.Name, si, "timed", "arrivals"), window) {
				fmt.Fprintln(h, int64(due))
			}
		}
		for c := 0; c < conns; c++ {
			g := NewGen(env, wl, si, seed, "timed", c)
			for i := 0; i < hashedPrefix; i++ {
				fmt.Fprintf(h, "%+v\n", g.Next())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
