package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"inspire/internal/query"
	"inspire/internal/tiles"
)

// Op names what a Query asks.
type Op uint8

// The unexported ops are the shard halves a Router sends and merges.
const (
	OpTerm      Op = iota // posting list of Terms[0]
	OpDF                  // document frequency of Terms[0]; never filtered
	OpAnd                 // documents holding every term
	OpOr                  // documents holding any term
	OpSimilar             // the K documents nearest Doc in signature space
	OpTheme               // documents of k-means cluster Cluster
	OpNear                // documents within R of (X, Y) on the ThemeView plane
	OpTile                // the Galaxy tile (Z, TX, TY)
	OpTileRange           // the non-empty tiles at zoom Z intersecting Rect
	OpAdd                 // ingest Text with timestamp TS and Facets
	OpDelete              // tombstone Doc

	opSimilarTo    // score the view against target: unfiltered, uncached
	opTileRaw      // the raw tile (Z, TX, TY)
	opTileRangeRaw // the raw non-empty tiles at zoom Z intersecting Rect
	numOps
)

// Query is one interaction as a value: an op and its operands; an op ignores
// the fields it does not name. Filter restricts every read but OpDF to the
// documents it matches; writes ignore it.
type Query struct {
	Op      Op
	Terms   []string   // OpTerm and OpDF (exactly one), OpAnd, OpOr
	Doc     int64      // OpSimilar's target, OpDelete's document
	K       int        // OpSimilar's result count
	Cluster int        // OpTheme
	X, Y, R float64    // OpNear's centre and radius
	Z       int        // OpTile, OpTileRange: zoom
	TX, TY  int        // OpTile: tile column and row
	Rect    tiles.Rect // OpTileRange: viewport
	Filter  Filter
	Text    string   // OpAdd
	TS      int64    // OpAdd: Unix seconds, 0 = none
	Facets  []string // OpAdd: "key=value" labels

	target []float64 // opSimilarTo: the target signature
}

// Result is the answer to a Query; only the fields of its op are set.
//
// Postings and Docs are borrowed: the executor that answered writes them into
// buffers it holds for one request, and they stay valid until its next Exec
// or Release. A caller that keeps an answer longer copies it first
// (slices.Clone). Every other field is the caller's to keep.
type Result struct {
	Postings []query.Posting // OpTerm
	Docs     []int64         // OpAnd, OpOr, OpTheme, OpNear
	Hits     []query.Hit     // OpSimilar
	Tile     *TileResult     // OpTile
	Tiles    []*TileResult   // OpTileRange
	DF       int64           // OpDF
	Doc      int64           // OpAdd: the assigned document ID

	raw  *tiles.Tile   // opTileRaw
	raws []*tiles.Tile // opTileRangeRaw
}

// answer is the buffers one read writes its Postings or Docs into, borrowed
// from answers for the span of one request: an executor takes one when a
// read needs it and puts it back at its next Exec or Release. The buffers
// are pooled, not kept per session: a daemon holds up to a thousand named
// sessions, and each would otherwise pin the largest answer it ever gave.
// Nothing borrowed is ever stored in a shared cache, and a buffer that is
// never put back is simply collected.
type answer struct {
	docs  []int64
	posts []query.Posting
	tmp   []int64 // a second document buffer: merged frequencies, merge runs
}

// maxPooledAnswer keeps one outsized answer (bytes across its buffers) from
// pinning its buffers in the pool forever.
const maxPooledAnswer = 1 << 20

var answers = sync.Pool{New: func() any { return new(answer) }}

// lender holds an executor's borrowed answer, if any.
type lender struct{ a *answer }

// borrow returns the executor's answer buffers, taking them from the pool
// on the request's first use.
func (l *lender) borrow() *answer {
	if l.a == nil {
		l.a = answers.Get().(*answer)
	}
	return l.a
}

// take hands the borrowed answer, if any, to the caller: the executor's next
// read borrows afresh instead of writing over it.
func (l *lender) take() *answer {
	a := l.a
	l.a = nil
	return a
}

// release puts the executor's borrowed answer back in the pool: the
// Postings and Docs of its last Result are no longer valid.
func (l *lender) release() { putAnswer(l.take()) }

// putAnswer returns a (nil: none) to the pool, unless it is outsized.
func putAnswer(a *answer) {
	if a != nil && 8*cap(a.docs)+16*cap(a.posts)+8*cap(a.tmp) <= maxPooledAnswer {
		answers.Put(a)
	}
}

// room returns s[:0] with capacity for n elements: s's own array when it is
// large enough, else one fresh allocation (slices.Grow's two, under -race).
func room[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// The kinds of error an interaction fails with besides its context's own: a
// query no store could answer as asked (a malformed operand, an out-of-range
// tile, a refused write) is ErrInvalid, one about a document that is not
// there ErrNotFound. Match them with errors.Is.
var (
	ErrInvalid  = errors.New("serve: invalid query")
	ErrNotFound = errors.New("serve: not found")
)

// kindError is an error of one kind whose message is its own.
type kindError struct {
	error
	kind error
}

func (e kindError) Is(target error) bool { return target == e.kind }

// Errorf formats an error of the given kind — ErrInvalid, ErrNotFound, or a
// caller's own sentinel: errors.Is(err, kind) holds, and the message is the
// formatted text alone.
func Errorf(kind error, format string, args ...any) error {
	return kindError{fmt.Errorf(format, args...), kind}
}

// errNoSignature is a similarity target that is absent or has no signature.
func errNoSignature(doc int64) error {
	return Errorf(ErrNotFound, "serve: document %d not found or has a null signature", doc)
}

// prepare is what every executor does before an interaction counts: honour
// the context, canonicalize the filter, refuse a malformed query. skip is a
// query answered empty, uncounted: a conjunction of no terms.
func (q *Query) prepare(ctx context.Context, tc tiles.Config) (skip bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	if q.Filter, err = q.Filter.canonical(); err != nil {
		return false, err
	}
	switch {
	case q.Op >= numOps:
		return false, Errorf(ErrInvalid, "serve: unknown op %d", q.Op)
	case (q.Op == OpTerm || q.Op == OpDF) && len(q.Terms) != 1:
		return false, Errorf(ErrInvalid, "serve: a term query takes one term, not %d", len(q.Terms))
	case q.Op == OpAnd:
		return len(q.Terms) == 0, nil
	case q.Op == OpSimilar && q.K <= 0:
		return false, Errorf(ErrInvalid, "serve: similar: k must be positive")
	case q.Op == OpTile:
		return false, checkTileAddr(tc, q.Z, q.TX, q.TY)
	case q.Op == OpTileRange:
		return false, checkTileAddr(tc, q.Z, 0, 0)
	}
	return false, nil
}

// Querier is the session surface shared by single-store Sessions and sharded
// RouterSessions: one analyst's sequential interaction stream, including the
// live-ingestion verbs. A Querier's methods must be called from one
// goroutine at a time; distinct Queriers are fully concurrent.
//
// Every interaction takes a context as its first parameter: cancellation
// (client disconnect, admission deadline, a hedged request losing its race)
// stops the interaction early — error-returning ops surface ctx.Err(),
// slice-returning ops return nil.
//
// The slices TermDocs, And, Or, ThemeDocs and Near return are borrowed from
// the querier (see Result): valid until its next call or Release.
type Querier interface {
	TermDocs(ctx context.Context, term string) []query.Posting
	DF(ctx context.Context, term string) int64
	And(ctx context.Context, terms ...string) []int64
	Or(ctx context.Context, terms ...string) []int64
	Similar(ctx context.Context, doc int64, k int) ([]query.Hit, error)
	ThemeDocs(ctx context.Context, cluster int) []int64
	Near(ctx context.Context, x, y, radius float64) []int64
	Tile(ctx context.Context, z, x, y int) (*TileResult, error)
	TileRange(ctx context.Context, z int, r tiles.Rect) ([]*TileResult, error)
	Add(ctx context.Context, text string) (int64, error)
	AddDoc(ctx context.Context, text string, ts int64, facets []string) (int64, error)
	Delete(ctx context.Context, doc int64) error
	// SetFilter restricts every subsequent query on this querier to documents
	// matching f (see Filter); the zero Filter clears it. A filtered query
	// returns exactly the unfiltered answer with non-matching documents
	// removed. DF is a descriptor read and stays unfiltered.
	SetFilter(f Filter) error
	// Release hands back the buffers the last answer was borrowed from; that
	// answer is invalid from here on. The next call releases them too, so
	// Release matters only to give them back early.
	Release()
}

// querier is the Querier written once, over an executor's Exec: each method
// builds a Query carrying the sticky filter. Session and RouterSession embed
// it.
type querier struct {
	ex interface {
		Exec(ctx context.Context, q Query) (Result, error)
		Release()
	}
	filter Filter   // normalized
	terms  []string // the interaction's Terms, reused
}

func (a *querier) exec(ctx context.Context, q Query) (Result, error) {
	q.Filter = a.filter
	return a.ex.Exec(ctx, q)
}

// read is exec for the methods that answer nil on error.
func (a *querier) read(ctx context.Context, q Query) Result {
	res, _ := a.exec(ctx, q)
	return res
}

// with copies terms into scratch: a variadic slice must not escape to the heap
// through the executor interface.
func (a *querier) with(terms ...string) []string {
	a.terms = append(a.terms[:0], terms...)
	return a.terms
}

func (a *querier) Release() { a.ex.Release() }

func (a *querier) SetFilter(f Filter) error {
	nf, err := f.normalized()
	if err != nil {
		return err
	}
	a.filter = nf
	return nil
}

func (a *querier) TermDocs(ctx context.Context, term string) []query.Posting {
	return a.read(ctx, Query{Op: OpTerm, Terms: a.with(term)}).Postings
}

func (a *querier) DF(ctx context.Context, term string) int64 {
	return a.read(ctx, Query{Op: OpDF, Terms: a.with(term)}).DF
}

func (a *querier) And(ctx context.Context, terms ...string) []int64 {
	return a.read(ctx, Query{Op: OpAnd, Terms: a.with(terms...)}).Docs
}

func (a *querier) Or(ctx context.Context, terms ...string) []int64 {
	return a.read(ctx, Query{Op: OpOr, Terms: a.with(terms...)}).Docs
}

func (a *querier) ThemeDocs(ctx context.Context, cluster int) []int64 {
	return a.read(ctx, Query{Op: OpTheme, Cluster: cluster}).Docs
}

func (a *querier) Near(ctx context.Context, x, y, radius float64) []int64 {
	return a.read(ctx, Query{Op: OpNear, X: x, Y: y, R: radius}).Docs
}

func (a *querier) Similar(ctx context.Context, doc int64, k int) ([]query.Hit, error) {
	res, err := a.exec(ctx, Query{Op: OpSimilar, Doc: doc, K: k})
	return res.Hits, err
}

func (a *querier) Tile(ctx context.Context, z, x, y int) (*TileResult, error) {
	res, err := a.exec(ctx, Query{Op: OpTile, Z: z, TX: x, TY: y})
	return res.Tile, err
}

func (a *querier) TileRange(ctx context.Context, z int, r tiles.Rect) ([]*TileResult, error) {
	res, err := a.exec(ctx, Query{Op: OpTileRange, Z: z, Rect: r})
	return res.Tiles, err
}

func (a *querier) Add(ctx context.Context, text string) (int64, error) {
	return a.AddDoc(ctx, text, 0, nil)
}

func (a *querier) AddDoc(ctx context.Context, text string, ts int64, facets []string) (int64, error) {
	res, err := a.exec(ctx, Query{Op: OpAdd, Text: text, TS: ts, Facets: facets})
	return res.Doc, err
}

func (a *querier) Delete(ctx context.Context, doc int64) error {
	_, err := a.exec(ctx, Query{Op: OpDelete, Doc: doc})
	return err
}
