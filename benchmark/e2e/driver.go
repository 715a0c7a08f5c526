package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReqHeader carries the request's ID, so a traced server can join its spans
// to the client's. The daemon ignores it.
const ReqHeader = "X-Bench-Req"

// Sample is one finished request as the client saw it. Times are
// nanoseconds; Start counts from the phase start.
type Sample struct {
	ID    uint64 // sent in ReqHeader; unique within a phase
	Op    Op
	Start int64 // when the request was sent
	Lat   int64 // reply fully read, minus the due time (the send time in a closed loop)
	Lag   int64 // send time minus due time; 0 in a closed loop
	Bytes int64 // body bytes
	Fail  bool  // transport error, non-200, ok:false, or a failed check
}

// Phase is the outcome of one driven window.
type Phase struct {
	Start   time.Time
	Window  time.Duration
	Samples []Sample
	// Unsent counts arrivals of open and paced streams that were still
	// waiting when the phase was cut; they are failures.
	Unsent   int
	Shed     int      // replies with status 429
	Failures []string // the first few failure messages
}

// tally is what one connection gathers during a phase.
type tally struct {
	samples      []Sample
	fails        []string
	shed, unsent int
}

// maxFailures is how many failure messages a phase keeps; the count of
// failures is kept in full.
const maxFailures = 8

// sendGrace is how long after the window an open or paced stream may still
// send late arrivals before the rest count as unsent.
const sendGrace = time.Second

// Driver sends a workload's traffic to one daemon from one process.
type Driver struct {
	env    *PlanEnv
	wl     *Workload
	seed   int64
	base   string
	themes *Themes
	conns  [][]*conn // per stream
	check  checker

	// The writer's ledger: what it was told is durable.
	mu      sync.Mutex
	fifo    []int64 // IDs of its adds not yet deleted, oldest first
	Adds    int64   // acknowledged adds
	Deletes int64   // acknowledged deletes
}

// conn is one keep-alive HTTP/1.1 connection. The request is written by
// hand and the reply parsed by net/http, with none of the client transport's
// goroutines in between: what the driver costs is reported as a metric, and
// should be small beside what the server costs.
type conn struct {
	id   int // unique within the driver
	addr string
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
	buf  []byte // the last reply's body
	sent uint64
}

// requestTimeout bounds one round trip, so a hung daemon fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// roundTrip sends one request and reads the whole reply into c.buf.
func (c *conn) roundTrip(method, target string, id uint64) (status int, err error) {
	c.buf = c.buf[:0]
	if c.nc == nil {
		if c.nc, err = net.DialTimeout("tcp", c.addr, requestTimeout); err != nil {
			return 0, err
		}
		c.br = bufio.NewReaderSize(c.nc, 64<<10)
	}
	defer func() {
		if err != nil {
			c.nc.Close()
			c.nc = nil
		}
	}()
	w := append(c.wbuf[:0], method...)
	w = append(append(append(w, ' '), target...), " HTTP/1.1\r\nHost: "...)
	w = append(append(w, c.addr...), "\r\n"+ReqHeader+": "...)
	w = append(strconv.AppendUint(w, id, 10), "\r\n"...)
	if method == http.MethodPost {
		w = append(w, "Content-Length: 0\r\n"...)
	}
	c.wbuf = append(w, "\r\n"...)
	if err = c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err = c.nc.Write(c.wbuf); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.buf, err = readAll(resp.Body, c.buf)
	resp.Body.Close()
	return resp.StatusCode, err
}

// NewDriver prepares the workload's connections (dialled on first use) to
// the daemon at base and learns the theme centroids from it.
func NewDriver(env *PlanEnv, wl *Workload, seed int64, base string) (*Driver, error) {
	d := &Driver{env: env, wl: wl, seed: seed, base: base}
	d.check = checker{truth: env.Truth, meta: env.Suite.Meta}
	id := 0
	for _, st := range wl.Streams {
		var cs []*conn
		for i := 0; i < st.Conns; i++ {
			cs = append(cs, &conn{id: id, addr: strings.TrimPrefix(base, "http://")})
			id++
		}
		d.conns = append(d.conns, cs)
		for _, m := range st.Mix {
			if opByName[m.Op] == OpAdd {
				d.check.dynamic = true
			}
		}
	}
	var themes []struct{ X, Y float64 }
	if err := GetData(base+"/v1/themes", &themes); err != nil {
		return nil, err
	}
	if len(themes) == 0 {
		return nil, fmt.Errorf("daemon reports no themes")
	}
	var xs, ys []float64
	for _, t := range themes {
		xs, ys = append(xs, t.X), append(ys, t.Y)
	}
	d.themes = NewThemes(xs, ys)
	return d, nil
}

// Close drops the driver's connections.
func (d *Driver) Close() {
	for _, cs := range d.conns {
		for _, c := range cs {
			if c.nc != nil {
				c.nc.Close()
				c.nc = nil
			}
		}
	}
}

// GetData fetches a /v1 URL and decodes the envelope's data into v.
func GetData(url string, v any) error {
	return fetchData(http.MethodGet, url, v)
}

// PostData posts to a /v1 URL and decodes the envelope's data into v.
func PostData(url string, v any) error {
	return fetchData(http.MethodPost, url, v)
}

func fetchData(method, url string, v any) error {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var env struct {
		OK   bool            `json:"ok"`
		Data json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil || !env.OK || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d, body %.200s", method, url, resp.StatusCode, body)
	}
	return json.Unmarshal(env.Data, v)
}

// Run drives one phase: every stream of the workload at once, for window.
// phase names the random streams ("warmup", "timed", "rung0"...). rate, when
// positive, makes every stream that has a ladder an open loop at that rate.
func (d *Driver) Run(ctx context.Context, phase string, window time.Duration, rate float64) *Phase {
	start := time.Now()
	ph := &Phase{Start: start, Window: window}
	var mu sync.Mutex // guards ph while connections finish
	var wg sync.WaitGroup
	for si := range d.wl.Streams {
		st := &d.wl.Streams[si]
		loop, r := st.Loop, st.Rate
		if rate > 0 && len(st.Ladder) > 0 {
			loop, r = LoopOpen, rate
		}
		if loop == LoopClosed {
			for ci, c := range d.conns[si] {
				wg.Add(1)
				go func(c *conn, g *Gen) {
					defer wg.Done()
					var t tally
					for time.Since(start) < window && ctx.Err() == nil {
						req := g.Next()
						d.do(c, &req, start, time.Time{}, &t)
					}
					mu.Lock()
					ph.add(&t)
					mu.Unlock()
				}(c, NewGen(d.env, d.wl, si, d.seed, phase, ci))
			}
			continue
		}
		due := Arrivals(loop, r, SubSeed(d.seed, d.wl.Name, si, phase, "arrivals"), window)
		g := NewGen(d.env, d.wl, si, d.seed, phase, 0)
		reqs := make([]Request, len(due))
		for i := range reqs {
			reqs[i] = g.Next()
		}
		var next atomic.Int64
		for _, c := range d.conns[si] {
			wg.Add(1)
			go func(c *conn) {
				defer wg.Done()
				var t tally
				for ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if i >= len(due) {
						break
					}
					at := start.Add(due[i])
					sleepUntil(at)
					if time.Since(start) > window+sendGrace {
						t.unsent++
						continue
					}
					d.do(c, &reqs[i], start, at, &t)
				}
				mu.Lock()
				ph.add(&t)
				mu.Unlock()
			}(c)
		}
	}
	wg.Wait()
	return ph
}

func (ph *Phase) add(t *tally) {
	ph.Samples = append(ph.Samples, t.samples...)
	ph.Shed += t.shed
	ph.Unsent += t.unsent
	for _, f := range t.fails {
		if len(ph.Failures) < maxFailures {
			ph.Failures = append(ph.Failures, f)
		}
	}
}

// do sends one request on a connection and records its sample. due is when
// the request should have been sent; the zero time means now (closed loop).
func (d *Driver) do(c *conn, req *Request, start, due time.Time, t *tally) {
	var doc int64
	if req.Op == OpDelete {
		d.mu.Lock()
		if len(d.fifo) == 0 {
			d.mu.Unlock()
			return // nothing of its own to delete yet
		}
		doc, d.fifo = d.fifo[0], d.fifo[1:]
		d.mu.Unlock()
	}
	c.sent++
	session := "c" + strconv.Itoa(c.id) + "s" + strconv.FormatUint(c.sent%uint64(d.env.Suite.Sessions), 10)
	method := http.MethodGet
	if req.Op.IsWrite() {
		method = http.MethodPost
	}
	s := Sample{ID: uint64(c.id)<<40 | c.sent, Op: req.Op}
	fail := func(msg string) {
		s.Fail = true
		if len(t.fails) >= maxFailures {
			return
		}
		t.fails = append(t.fails, fmt.Sprintf("%s %s: %s", req.Op, req.URL("", d.themes, session, doc), msg))
	}
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	s.Start, s.Lag = int64(sent.Sub(start)), int64(sent.Sub(due))
	status, err := c.roundTrip(method, req.URL("", d.themes, session, doc), s.ID)
	s.Lat, s.Bytes = int64(time.Since(due)), int64(len(c.buf))
	switch {
	case err != nil:
		fail(err.Error())
	case status == http.StatusTooManyRequests:
		t.shed++
		fail("shed with 429")
	case status != http.StatusOK || !bytes.HasPrefix(c.buf, []byte(`{"ok":true`)):
		fail(fmt.Sprintf("status %d, body %.120s", status, c.buf))
	case req.Op.IsWrite() || c.sent%uint64(d.env.Suite.SampleEvery) == 0:
		var env envelope
		if err := json.Unmarshal(c.buf, &env); err != nil {
			fail("reply does not decode: " + err.Error())
		} else if msg := d.check.reply(req, &env.Data); msg != "" {
			fail(msg)
		} else if req.Op.IsWrite() {
			d.mu.Lock()
			if req.Op == OpAdd {
				d.Adds++
				d.fifo = append(d.fifo, env.Data.Doc)
			} else {
				d.Deletes++
			}
			d.mu.Unlock()
		}
	}
	t.samples = append(t.samples, s)
}

// readAll reads r to its end into buf, growing it as needed.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// SentinelCount asks the daemon how many live documents carry the
// sentinel term.
func (d *Driver) SentinelCount() (int64, error) {
	var rep reply
	err := GetData(d.base+"/v1/term?q="+d.env.Sentinel(), &rep)
	return int64(rep.Count), err
}
