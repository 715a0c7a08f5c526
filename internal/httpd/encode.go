package httpd

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"inspire/internal/query"
	"inspire/internal/serve"
	"inspire/internal/tiles"
)

// The reply path: every Reply — and the HTTP envelope around it — is rendered
// by appendReply into a pooled buffer and leaves in one Write with its
// Content-Length. The output is byte-for-byte what encoding/json produces for
// the same value (FuzzAppendReply holds the two against each other), so the
// wire format is still defined by the struct tags on Reply, serve.TileResult
// and their element types; a field added there must be added here.

// appendReply appends r as JSON. It fails, like json.Marshal, on a
// non-finite float — JSON has no spelling for one; dst is then garbage past
// its original length.
func appendReply(dst []byte, r *Reply) ([]byte, error) {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, r.Op)
	dst = append(dst, `,"count":`...)
	dst = appendInt(dst, int64(r.Count))
	if len(r.Postings) > 0 {
		dst = append(dst, `,"postings":`...)
		dst = appendPostings(dst, r.Postings)
	}
	if len(r.Docs) > 0 {
		dst = append(dst, `,"docs":`...)
		dst = appendInts(dst, r.Docs)
	}
	if len(r.Hits) > 0 {
		dst = append(dst, `,"hits":`...)
		var err error
		if dst, err = appendHits(dst, r.Hits); err != nil {
			return dst, err
		}
	}
	if r.Tile != nil {
		dst = append(dst, `,"tile":`...)
		dst = appendTile(dst, r.Tile)
	}
	if r.DF != 0 {
		dst = append(dst, `,"df":`...)
		dst = appendInt(dst, r.DF)
	}
	if r.Doc != 0 {
		dst = append(dst, `,"doc":`...)
		dst = appendInt(dst, r.Doc)
	}
	if r.OK {
		dst = append(dst, `,"ok":true`...)
	}
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, r.Error)
	}
	return append(dst, '}'), nil
}

func appendHits(dst []byte, hits []query.Hit) ([]byte, error) {
	dst = append(dst, '[')
	for i, h := range hits {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Doc":`...)
		dst = appendInt(dst, h.Doc)
		dst = append(dst, `,"Score":`...)
		var err error
		if dst, err = appendFloat(dst, h.Score); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

func appendTile(dst []byte, t *serve.TileResult) []byte {
	dst = append(dst, `{"z":`...)
	dst = appendInt(dst, int64(t.Z))
	dst = append(dst, `,"x":`...)
	dst = appendInt(dst, int64(t.X))
	dst = append(dst, `,"y":`...)
	dst = appendInt(dst, int64(t.Y))
	dst = append(dst, `,"docs":`...)
	dst = appendInt(dst, t.Docs)
	dst = append(dst, `,"grid":`...)
	dst = appendInt(dst, int64(t.Grid))
	if len(t.Density) > 0 {
		dst = append(dst, `,"density":`...)
		dst = appendInts(dst, t.Density)
	}
	if len(t.Themes) > 0 {
		dst = append(dst, `,"themes":[`...)
		for i, th := range t.Themes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendTileTheme(dst, th)
		}
		dst = append(dst, ']')
	}
	if len(t.Times) > 0 {
		dst = append(dst, `,"times":[`...)
		for i, tc := range t.Times {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(append(dst, `{"Bucket":`...), tc.Bucket)
			dst = appendInt(append(dst, `,"Docs":`...), tc.Docs)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(t.Facets) > 0 {
		dst = append(dst, `,"facets":[`...)
		for i, fc := range t.Facets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFacetCount(dst, fc)
		}
		dst = append(dst, ']')
	}
	if len(t.Exemplars) > 0 {
		dst = append(dst, `,"exemplars":`...)
		dst = appendInts(dst, t.Exemplars)
	}
	return append(dst, '}')
}

func appendTileTheme(dst []byte, th serve.TileTheme) []byte {
	dst = append(dst, `{"cluster":`...)
	dst = appendInt(dst, th.Cluster)
	dst = append(dst, `,"docs":`...)
	dst = appendInt(dst, th.Docs)
	if th.Label != "" {
		dst = append(dst, `,"label":`...)
		dst = appendString(dst, th.Label)
	}
	return append(dst, '}')
}

func appendFacetCount(dst []byte, fc tiles.FacetCount) []byte {
	dst = append(dst, `{"Facet":`...)
	dst = appendString(dst, fc.Facet)
	dst = append(dst, `,"Docs":`...)
	dst = appendInt(dst, fc.Docs)
	return append(dst, '}')
}

// The integer path. A number below 1e8 is a few stores into dst, its digits
// four at a time from digits4; an array grows dst once to the most its fast
// path can write, then writes by index. Anything else takes strconv, and in an
// array the first such value hands the rest of it to an appending loop.

// digits4[v] is the four ASCII digits of v < 1e4, zero-padded, as the
// little-endian word a 4-byte store writes in order: 40 KB.
var digits4 [1e4]uint32

// pow10 are the thresholds of putSmall's digit count; it indexes at most 4,
// and the array's 8 entries let a mask stand for the bounds check.
var pow10 = [8]uint32{1, 10, 100, 1e3, 1e4}

// The fixed keys of a posting, as the little-endian words that write them in
// one 8-byte store: the first posting opens the array.
var (
	keyDocFirst = binary.LittleEndian.Uint64([]byte(`[{"Doc":`))
	keyDoc      = binary.LittleEndian.Uint64([]byte(`,{"Doc":`))
	keyFreq     = binary.LittleEndian.Uint64([]byte(`,"Freq":`))
)

func init() {
	for v := range digits4 {
		digits4[v] = binary.LittleEndian.Uint32([]byte{
			byte('0' + v/1000), byte('0' + v/100%10), byte('0' + v/10%10), byte('0' + v%10)})
	}
}

// Most bytes the fast paths write per element, separators included: a number
// below 1e8 touches at most 8 bytes from where it starts, whatever its length.
const (
	intSpan     = 8
	postingSpan = 8 + intSpan + 8 + intSpan + 1 // key, Doc, key, Freq, '}'
)

// putSmall writes u < 1e4 at b[i:] in one 4-byte store, shifted to drop the
// leading zeros, and returns the index past its digits. The digit count is
// ⌊log10⌋ from the bit length (1233/4096 ≈ log10 2), corrected by one compare.
func putSmall(b []byte, i int, u uint32) int {
	n := bits.Len32(u|1) * 1233 >> 12
	if u|1 >= pow10[n&7] {
		n++
	}
	binary.LittleEndian.PutUint32(b[i:], digits4[u]>>(32-8*n))
	return i + n
}

// putLarge writes 1e4 ≤ u < 1e8 at b[i:] like putSmall: the high half, then
// four digits. Together they may touch intSpan bytes from i. Callers choose
// between the two themselves: a helper that chose would not inline.
func putLarge(b []byte, i int, u uint32) int {
	hi := u / 1e4
	i = putSmall(b, i, hi)
	binary.LittleEndian.PutUint32(b[i:], digits4[u-hi*1e4])
	return i + 4
}

// appendInt is strconv.AppendInt(dst, n, 10), by putSmall or putLarge for
// 0 ≤ n < 1e8.
func appendInt(dst []byte, n int64) []byte {
	if uint64(n) >= 1e8 {
		return strconv.AppendInt(dst, n, 10)
	}
	i := len(dst)
	b := slices.Grow(dst, intSpan)[:i+intSpan]
	if n < 1e4 {
		return b[:putSmall(b, i, uint32(n))]
	}
	return b[:putLarge(b, i, uint32(n))]
}

// appendInts appends v as a JSON array: a doc-ID list, a density raster.
func appendInts[T int64 | uint32](dst []byte, v []T) []byte {
	if len(v) == 0 {
		return append(dst, "[]"...)
	}
	i := len(dst)
	b := slices.Grow(dst, len(v)*(1+intSpan)+1)
	b = b[:cap(b)]
	sep := byte('[')
	for j, n := range v {
		if uint64(n) >= 1e8 {
			return appendIntsFrom(b[:i], v[j:], sep)
		}
		b[i] = sep
		sep = ','
		if n < 1e4 {
			i = putSmall(b, i+1, uint32(n))
		} else {
			i = putLarge(b, i+1, uint32(n))
		}
	}
	b[i] = ']'
	return b[:i+1]
}

// appendIntsFrom finishes an array by appendInt, from an element that needs
// strconv; sep is what precedes the first.
func appendIntsFrom[T int64 | uint32](dst []byte, v []T, sep byte) []byte {
	for _, n := range v {
		dst = appendInt(append(dst, sep), int64(n))
		sep = ','
	}
	return append(dst, ']')
}

// appendPostings appends ps as a JSON array of {"Doc","Freq"}.
func appendPostings(dst []byte, ps []query.Posting) []byte {
	if len(ps) == 0 {
		return append(dst, "[]"...)
	}
	i := len(dst)
	b := slices.Grow(dst, len(ps)*postingSpan+1)
	b = b[:cap(b)]
	key := keyDocFirst
	for j, p := range ps {
		if uint64(p.Doc) >= 1e8 || uint64(p.Freq) >= 1e8 {
			return appendPostingsFrom(b[:i], ps[j:], byte(key)) // the key's first byte
		}
		binary.LittleEndian.PutUint64(b[i:], key)
		key = keyDoc
		if p.Doc < 1e4 {
			i = putSmall(b, i+8, uint32(p.Doc))
		} else {
			i = putLarge(b, i+8, uint32(p.Doc))
		}
		binary.LittleEndian.PutUint64(b[i:], keyFreq)
		switch {
		case p.Freq < 10: // two in three on lookup-hot: one byte beats putSmall
			b[i+8] = byte('0' + p.Freq)
			i += 9
		case p.Freq < 1e4:
			i = putSmall(b, i+8, uint32(p.Freq))
		default:
			i = putLarge(b, i+8, uint32(p.Freq))
		}
		b[i] = '}'
		i++
	}
	b[i] = ']'
	return b[:i+1]
}

// appendPostingsFrom finishes a postings array by appendInt, from a posting
// that needs strconv; sep is what precedes the first.
func appendPostingsFrom(dst []byte, ps []query.Posting, sep byte) []byte {
	for _, p := range ps {
		dst = appendInt(append(append(dst, sep), `{"Doc":`...), p.Doc)
		dst = appendInt(append(dst, `,"Freq":`...), p.Freq)
		dst = append(dst, '}')
		sep = ','
	}
	return append(dst, ']')
}

// appendFloat spells f the way encoding/json does: ES6 number-to-string —
// shortest round-trip digits, exponent form outside [1e-6, 1e21), a
// negative exponent without its leading zero.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("reply holds the non-finite number %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s the way encoding/json does with HTML escaping on:
// two-character escapes for quote, backslash and \b \f \n \r \t, \u00XX for
// the other control bytes and for < > &, U+2028 and U+2029 escaped, and each
// invalid UTF-8 byte replaced by an escaped U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// envelopeOpen starts a successful HTTP response; the payload and '}' follow.
const envelopeOpen = `{"ok":true,"data":`

// Two transports, one encoder each: HTTP writes the /v1 envelope
// (appendEnvelope, appendErrorEnvelope, appendValueEnvelope), the line
// protocol writes the bare Reply (appendLine). Both end in a newline.

// appendErrorEnvelope appends a refusal as HTTP spells it,
// {"ok":false,"error":{code,message}}.
func appendErrorEnvelope(dst []byte, code, msg string) []byte {
	dst = append(dst, `{"ok":false,"error":{"code":`...)
	dst = appendString(dst, code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, msg)
	return append(dst, "}}\n"...)
}

// appendEnvelope appends the whole HTTP response body of an op result and
// returns the status that goes with it: an op error answers with the code its
// kind selected (Reply.fail), and a reply that cannot be encoded answers 500
// `internal` with nothing of it on the wire.
func appendEnvelope(dst []byte, rep *Reply) ([]byte, int) {
	if rep.Error != "" {
		return appendErrorEnvelope(dst, rep.code, rep.Error), httpStatus(rep.code)
	}
	mark := len(dst)
	dst, err := appendReply(append(dst, envelopeOpen...), rep)
	if err != nil {
		return appendErrorEnvelope(dst[:mark], CodeInternal, err.Error()), http.StatusInternalServerError
	}
	return append(dst, "}\n"...), http.StatusOK
}

// appendValueEnvelope is appendEnvelope for the /themes and /stats documents.
// They are the two payloads left on reflection: cold (a dashboard polls them,
// no query waits on them) and shape-rich (serve.Stats alone is dozens of
// counters that grow with every subsystem), so a hand-written encoder would
// cost more to keep true than it could save.
func appendValueEnvelope(dst []byte, v any) ([]byte, int) {
	raw, err := json.Marshal(v)
	if err != nil {
		return appendErrorEnvelope(dst, CodeInternal, err.Error()), http.StatusInternalServerError
	}
	dst = append(append(dst, envelopeOpen...), raw...)
	return append(dst, "}\n"...), http.StatusOK
}

// appendLine appends one line of the stdin protocol: the bare Reply, its op
// error in-band; a reply that cannot be encoded becomes an in-band error with
// nothing of it on the line.
func appendLine(dst []byte, rep *Reply) []byte {
	mark := len(dst)
	dst, err := appendReply(dst, rep)
	if err != nil {
		dst, _ = appendReply(dst[:mark], &Reply{Op: rep.Op, Error: err.Error()}) // no float to refuse
	}
	return append(dst, '\n')
}

// body is a pooled response buffer. Replies are ~90 KB on posting-heavy
// routes, so a fresh buffer per request would be the handler's largest
// allocation.
type body struct{ b []byte }

// maxPooledBody keeps one outsized reply from pinning its buffer in the
// pool forever.
const maxPooledBody = 1 << 20

var bodies = sync.Pool{New: func() any { return new(body) }}

func newBody() *body {
	bb := bodies.Get().(*body)
	bb.b = bb.b[:0]
	return bb
}

// send writes the buffer as the complete response — status, length, one
// Write — and returns it to the pool. A failed Write means the client went
// away; there is no one left to tell.
func (bb *body) send(w http.ResponseWriter, status int) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(bb.b)))
	w.WriteHeader(status)
	_, _ = w.Write(bb.b)
	bb.release()
}

func (bb *body) release() {
	if cap(bb.b) <= maxPooledBody {
		bodies.Put(bb)
	}
}
