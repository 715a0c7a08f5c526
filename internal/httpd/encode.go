package httpd

import (
	"encoding/json"
	"fmt"
	"math"
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
		dst = append(dst, `,"postings":[`...)
		for i, p := range r.Postings {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendIntPair(dst, `{"Doc":`, p.Doc, `,"Freq":`, p.Freq)
		}
		dst = append(dst, ']')
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
		dst = append(dst, `,"density":[`...)
		for i, c := range t.Density {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, int64(c))
		}
		dst = append(dst, ']')
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
			dst = appendIntPair(dst, `{"Bucket":`, tc.Bucket, `,"Docs":`, tc.Docs)
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

// appendIntPair appends a two-integer object (a Posting, a TimeCount); k1
// and k2 are the keys spelled with their punctuation.
func appendIntPair(dst []byte, k1 string, a int64, k2 string, b int64) []byte {
	dst = append(dst, k1...)
	dst = appendInt(dst, a)
	dst = append(dst, k2...)
	dst = appendInt(dst, b)
	return append(dst, '}')
}

func appendInts(dst []byte, v []int64) []byte {
	dst = append(dst, '[')
	for i, n := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, n)
	}
	return append(dst, ']')
}

// digitPairs is "00" "01" … "99": two decimal digits per table read.
const digitPairs = "" +
	"00010203040506070809" + "10111213141516171819" +
	"20212223242526272829" + "30313233343536373839" +
	"40414243444546474849" + "50515253545556575859" +
	"60616263646566676869" + "70717273747576777879" +
	"80818283848586878889" + "90919293949596979899"

// appendInt is strconv.AppendInt(dst, n, 10) for the integers replies are
// made of — document IDs and counts, tens of thousands per reply — written
// straight into dst instead of through strconv's scratch array and copy.
// Anything outside [0, 1e9) takes strconv.
func appendInt(dst []byte, n int64) []byte {
	if n < 0 || n >= 1e9 {
		return strconv.AppendInt(dst, n, 10)
	}
	u := uint32(n)
	digits := 9
	switch { // small first: frequencies are one digit, document IDs a few
	case u < 10:
		digits = 1
	case u < 100:
		digits = 2
	case u < 1e3:
		digits = 3
	case u < 1e4:
		digits = 4
	case u < 1e5:
		digits = 5
	case u < 1e6:
		digits = 6
	case u < 1e7:
		digits = 7
	case u < 1e8:
		digits = 8
	}
	i := len(dst) + digits
	dst = slices.Grow(dst, digits)[:i]
	for u >= 100 {
		q := u / 100
		p := (u - q*100) * 2
		u = q
		i -= 2
		dst[i], dst[i+1] = digitPairs[p], digitPairs[p+1]
	}
	if u >= 10 {
		dst[i-2], dst[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		dst[i-1] = byte('0' + u)
	}
	return dst
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
