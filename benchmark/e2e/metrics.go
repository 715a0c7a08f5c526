package e2e

import (
	"encoding/json"
	"math"
	"sort"
	"time"
)

// Metric is one reported number. Null marks a metric that does not apply to
// the run (no writes, too few samples for the percentile, no /proc).
type Metric struct {
	Value float64
	Unit  string
	Null  bool
}

// Metrics maps metric names to values.
type Metrics map[string]Metric

// Set records a value.
func (m Metrics) Set(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

// SetNull records that a metric does not apply.
func (m Metrics) SetNull(name, unit string) { m[name] = Metric{Unit: unit, Null: true} }

// SetIf records v when ok, else null.
func (m Metrics) SetIf(name, unit string, v float64, ok bool) {
	m[name] = Metric{Value: v, Unit: unit, Null: !ok}
}

// Percentile returns the p-quantile (0 < p < 1) of ascending values by the
// nearest-rank rule. ok is false unless at least ten samples lie beyond it:
// a p99 read off fewer than 1000 samples is a guess about the tail, and is
// reported as null instead.
func Percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if float64(n)*(1-p) < 10 {
		return 0, false
	}
	return sorted[min(n-1, int(math.Ceil(float64(n)*p))-1)], true
}

// Quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so the
// spreads printed here are the ones the acceptance procedure computes.
func Quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	if m == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the middle value, 0 of none.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	_, q2, _ := Quartiles(values)
	return q2
}

// MidMean returns the mean of the middle half of the values, 0 of none: the
// lowest and the highest quarter are dropped, so a stall or a burst on a
// shared host that spoils a few slices of a window does not move it, while
// whatever most of the window saw is averaged rather than picked from.
func MidMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	k := len(v) / 4
	v = v[k : len(v)-k]
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Latencies are the sorted latencies of a phase, split the ways the report
// needs them.
type Latencies struct {
	Reads, Writes []int64         // successful requests, ns, ascending
	ByOp          [NumOps][]int64 // successful requests per op
	Lag           []int64         // send delay of every sent request
	OK, Failed    int
	Bytes         int64
}

// Latencies sorts a phase's samples.
func (ph *Phase) Latencies() *Latencies {
	l := &Latencies{Failed: ph.Unsent}
	for _, s := range ph.Samples {
		l.Lag = append(l.Lag, s.Lag)
		if s.Fail {
			l.Failed++
			continue
		}
		l.OK++
		l.Bytes += s.Bytes
		l.ByOp[s.Op] = append(l.ByOp[s.Op], s.Lat)
		if s.Op.IsWrite() {
			l.Writes = append(l.Writes, s.Lat)
		} else {
			l.Reads = append(l.Reads, s.Lat)
		}
	}
	asc := func(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }
	asc(l.Reads)
	asc(l.Writes)
	asc(l.Lag)
	for i := range l.ByOp {
		asc(l.ByOp[i])
	}
	return l
}

// setMS records a latency percentile in milliseconds, null when the sample
// is too small for it.
func (m Metrics) setMS(name string, sorted []int64, p float64) {
	v, ok := Percentile(sorted, p)
	m.SetIf(name, "ms", float64(v)/1e6, ok)
}

// ClientMetrics reports what the client saw over a whole phase: throughput,
// read and write latency, and the failed share.
func (ph *Phase) ClientMetrics(l *Latencies) Metrics {
	m := Metrics{}
	m.Set("qps", "1/s", float64(l.OK)/ph.Window.Seconds())
	m.setMS("read_p50_ms", l.Reads, 0.50)
	m.setMS("read_p95_ms", l.Reads, 0.95)
	m.setMS("read_p99_ms", l.Reads, 0.99)
	m.setMS("write_p50_ms", l.Writes, 0.50)
	m.setMS("write_p99_ms", l.Writes, 0.99)
	m.Set("fail_frac", "ratio", float64(l.Failed)/float64(max(1, l.OK+l.Failed)))
	return m
}

// Mark is the daemon's CPU time as read at one slice boundary of a phase.
type Mark struct {
	At  time.Time
	CPU float64 // seconds used so far; meaningless unless OK
	OK  bool
}

// WatchCPU reads the CPU time of process pid at the n+1 boundaries of n
// equal slices of a window that starts now, and delivers the marks when the
// window is over.
func WatchCPU(pid int, window time.Duration, n int) <-chan []Mark {
	out := make(chan []Mark, 1)
	start := time.Now()
	go func() {
		marks := make([]Mark, 0, n+1)
		for i := 0; i <= n; i++ {
			sleepUntil(start.Add(window * time.Duration(i) / time.Duration(n)))
			cpu, ok := ProcCPUSeconds(pid)
			marks = append(marks, Mark{At: time.Now(), CPU: cpu, OK: ok})
		}
		out <- marks
	}()
	return out
}

// SliceNames are the timings a run reports as the mid-mean over the slices
// of its window instead of over the window as a whole.
var SliceNames = []string{"qps", "read_p50_ms", "read_p95_ms", "server_cpu_ms_per_req"}

// SliceSeries cuts a phase at the marks and measures each slice by itself:
// the requests that finished in it per second, their read latency, and the
// daemon's CPU time per request. A value a slice cannot give (too few reads
// for the percentile, no /proc) is left out of its series.
func (ph *Phase) SliceSeries(marks []Mark) map[string][]float64 {
	n := len(marks) - 1
	reads := make([][]int64, n)
	oks := make([]int, n)
	for _, s := range ph.Samples {
		if s.Fail {
			continue
		}
		end := ph.Start.Add(time.Duration(s.Start - s.Lag + s.Lat))
		i := sort.Search(len(marks), func(i int) bool { return marks[i].At.After(end) }) - 1
		if i < 0 || i >= n {
			continue
		}
		oks[i]++
		if !s.Op.IsWrite() {
			reads[i] = append(reads[i], s.Lat)
		}
	}
	series := map[string][]float64{}
	for i := 0; i < n; i++ {
		if oks[i] == 0 {
			continue
		}
		a, b := marks[i], marks[i+1]
		series["qps"] = append(series["qps"], float64(oks[i])/b.At.Sub(a.At).Seconds())
		if a.OK && b.OK {
			series["server_cpu_ms_per_req"] = append(series["server_cpu_ms_per_req"], (b.CPU-a.CPU)*1e3/float64(oks[i]))
		}
		sort.Slice(reads[i], func(x, y int) bool { return reads[i][x] < reads[i][y] })
		for name, p := range map[string]float64{"read_p50_ms": 0.50, "read_p95_ms": 0.95} {
			if v, ok := Percentile(reads[i], p); ok {
				series[name] = append(series[name], float64(v)/1e6)
			}
		}
	}
	return series
}

// Counters turns the change of the daemon's /v1/stats across a window into
// the per-layer counts and ratios, per successful request where that is the
// useful base. A counter the daemon no longer exports reads as zero.
func Counters(before, after map[string]float64, l *Latencies) Metrics {
	d := func(name string) float64 { return after[name] - before[name] }
	reqs := float64(max(1, l.OK))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := Metrics{}
	m.Set("httpd.reply_kb_per_req", "KB", float64(l.Bytes)/1024/reqs)

	m.Set("serve.router.fanouts_per_req", "count", d("FanOuts")/reqs)
	m.Set("serve.router.shard_queries_per_req", "count", d("ShardQueries")/reqs)
	m.Set("serve.router.pruned_frac", "ratio", ratio(d("ShardsPruned"), d("ShardsPruned")+d("ShardQueries")))
	m.Set("serve.router.short_circuit_frac", "ratio", d("ShortCircuits")/reqs)

	m.Set("serve.replica.hedges_per_req", "count", d("Hedges")/reqs)
	m.Set("serve.replica.hedge_win_frac", "ratio", ratio(d("HedgeWins"), d("Hedges")))
	m.Set("serve.replica.failovers", "count", d("Failovers"))

	hits := d("PostingHits") + d("Coalesced")
	m.Set("serve.shard.posting_hit_rate", "ratio", ratio(hits, hits+d("PostingMisses")))
	m.Set("serve.shard.posting_misses_per_req", "count", d("PostingMisses")/reqs)
	m.Set("serve.shard.sim_hit_rate", "ratio", ratio(d("SimHits"), d("SimHits")+d("SimMisses")))
	m.Set("serve.shard.sim_refreshes", "count", d("SimRefreshes"))

	m.Set("postings.blocks_decoded_per_req", "count", d("BlocksDecoded")/reqs)
	m.Set("postings.blocks_skipped_per_req", "count", d("BlocksSkipped")/reqs)
	m.Set("postings.bitmap_ands_per_req", "count", d("BitmapAnds")/reqs)
	m.Set("postings.bitmap_probes_per_req", "count", d("BitmapProbes")/reqs)
	m.Set("postings.bitmap_serves_per_req", "count", d("BitmapServes")/reqs)

	m.Set("tiles.hit_rate", "ratio", ratio(d("TileHits"), d("TileHits")+d("TileMisses")))
	m.Set("tiles.pruned_per_req", "count", d("TilesPruned")/reqs)
	m.Set("serve.meta.filter_builds_per_req", "count", d("FilterBuilds")/reqs)
	m.Set("serve.meta.filter_hit_rate", "ratio", ratio(d("FilterHits"), d("FilterHits")+d("FilterBuilds")))

	m.Set("serve.ingest.adds", "count", d("Adds"))
	m.Set("serve.ingest.deletes", "count", d("Deletes"))
	m.Set("serve.ingest.seals", "count", d("Seals"))
	m.Set("serve.ingest.compactions", "count", d("Compactions"))

	m.Set("storefile.pinned_mb", "MB", after["ResidentPinnedBytes"]/1e6)
	m.Set("storefile.mapped_mb", "MB", after["ResidentMappedBytes"]/1e6)
	m.Set("storefile.pin_denials", "count", after["PinDenials"])
	return m
}

// metricJSON is a Metric on the wire: {"value": 1.2, "unit": "ms"}, with a
// null value where the metric does not apply.
type metricJSON struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// MarshalJSON writes the wire form.
func (m Metric) MarshalJSON() ([]byte, error) {
	j := metricJSON{Unit: m.Unit}
	if !m.Null {
		j.Value = &m.Value
	}
	return json.Marshal(j)
}

// UnmarshalJSON reads the wire form.
func (m *Metric) UnmarshalJSON(data []byte) error {
	var j metricJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*m = Metric{Unit: j.Unit, Null: j.Value == nil}
	if j.Value != nil {
		m.Value = *j.Value
	}
	return nil
}
