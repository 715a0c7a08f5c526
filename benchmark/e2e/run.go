package e2e

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// RunConfig selects one benchmark run.
type RunConfig struct {
	Suite    *Suite
	Workload string
	Seed     int64
	Window   time.Duration // the timed window
	// Trace makes the run the out-of-process half of a traced run: one
	// set-up, then the open-loop ladder and the restart probes after the
	// window. Its end-to-end numbers are not the benchmark's.
	Trace bool
	// WorkDir receives the built binaries and the run's temporary files.
	WorkDir string
	// Log receives the human-readable report.
	Log io.Writer
}

// Result is what one run measured.
type Result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	PlanSHA256 string   `json:"plan_sha256"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Problems   []string `json:"problems,omitempty"` // failed checks and broken workload rules
	// Correct: no request failed and the workload still stresses what it
	// claims to.
	Correct  bool    `json:"correct"`
	EndToEnd Metrics `json:"end_to_end"`
	Layers   Metrics `json:"layers"`
}

// restartProbes is how many daemon restarts storefile.ready_ms is the
// median of.
const restartProbes = 5

// sliceLen is the length of the slices the timed window is cut into; the
// bounded timings are mid-means over the slices.
const sliceLen = time.Second

// verifyPairs is how many term pairs the post-window identity check draws.
const verifyPairs = 16

// Run builds the program, sets it up, drives the workload and reports.
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	s := cfg.Suite
	wl, err := s.Workload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	bins, err := BuildBins(ctx, filepath.Join(cfg.WorkDir, "bin"))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set up several times and report the median: set-up is where the batch
	// pipeline shows, and one sample of it is too noisy to bound.
	setups := s.Setups
	if cfg.Trace {
		setups = 1
	}
	var dep *Deployment
	var setupS, generateS, pipelineS []float64
	for i := 0; i < setups; i++ {
		if dep != nil {
			dep.Daemon.Stop()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		if dep, err = SetUp(ctx, bins, s, wl, sub); err != nil {
			return nil, err
		}
		setupS, generateS = append(setupS, dep.SetupS), append(generateS, dep.GenerateS)
		pipelineS = append(pipelineS, dep.PipelineS)
	}

	// Read at exit: the restart probes replace dep.Daemon.
	defer func() { dep.Daemon.Stop() }()

	sources, err := ReadSources(dep.CorpusDir)
	if err != nil {
		return nil, err
	}
	env := &PlanEnv{Suite: s, Truth: BuildTruth(sources)}
	res := &Result{
		Workload:   wl.Name,
		Seed:       cfg.Seed,
		PlanSHA256: PlanHash(env, wl, cfg.Seed, cfg.Window),
		EndToEnd:   Metrics{},
		Layers:     Metrics{},
	}
	fail := func(err error) (*Result, error) {
		return nil, fmt.Errorf("%w\ndaemon stderr: %s", err, dep.Daemon.Stderr())
	}
	drv, err := NewDriver(env, wl, cfg.Seed, dep.Daemon.Base)
	if err != nil {
		return fail(err)
	}
	defer drv.Close()
	sentinel0, err := drv.SentinelCount()
	if err != nil {
		return fail(err)
	}

	// Warm up on a derived seed so caches fill and lazy set-up finishes
	// before the window, without replaying the window's own requests.
	drv.Run(ctx, "warmup", time.Duration(float64(cfg.Window)*s.WarmupFrac), 0)

	pid := dep.Daemon.PID()
	statsBefore, err := fetchStats(dep.Daemon.Base)
	if err != nil {
		return fail(err)
	}
	srvCPU0, _ := ProcCPUSeconds(pid)
	ownCPU0, _ := ProcCPUSeconds(os.Getpid())
	marks := WatchCPU(pid, cfg.Window, max(1, int(cfg.Window/sliceLen)))
	ph := drv.Run(ctx, "timed", cfg.Window, 0)
	srvCPU1, srvOK := ProcCPUSeconds(pid)
	ownCPU1, ownOK := ProcCPUSeconds(os.Getpid())
	rss, rssOK := ProcPeakRSSMB(pid)
	statsAfter, err := fetchStats(dep.Daemon.Base)
	if err != nil {
		return fail(err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	lat := ph.Latencies()
	reqs := float64(max(1, lat.OK))
	e := res.EndToEnd
	maps.Copy(e, ph.ClientMetrics(lat))
	e.SetIf("server_cpu_ms_per_req", "ms", (srvCPU1-srvCPU0)*1e3/reqs, srvOK)
	// The bounded timings are mid-means over the slices of the window, so
	// that a stall or a burst on a shared host spoils a slice and not the run.
	// What the window as a whole measured stays in the report under
	// whole.<name>, and stands in when no slice is long enough to tell.
	series := ph.SliceSeries(<-marks)
	for _, name := range SliceNames {
		e["whole."+name] = e[name]
		if len(series[name]) > 0 {
			e.Set(name, e[name].Unit, MidMean(series[name]))
		}
	}
	e.Set("setup_s", "s", Median(setupS))
	e.SetIf("server_rss_mb", "MB", rss, rssOK)
	e.Set("store_bytes_per_corpus_byte", "B/B", float64(dep.StoreBytes)/float64(env.Truth.CorpusBytes))

	ly := res.Layers
	maps.Copy(ly, Counters(statsBefore, statsAfter, lat))
	ly.Set("httpd.shed", "count", float64(ph.Shed))
	ly.SetIf("driver.cpu_ms_per_req", "ms", (ownCPU1-ownCPU0)*1e3/reqs, ownOK)
	lag, _ := Percentile(lat.Lag, 0.99)
	ly.Set("driver.sched_lag_p99_ms", "ms", float64(lag)/1e6)
	ly.Set("corpus.generate_s", "s", Median(generateS))
	ly.Set("core.pipeline_s", "s", Median(pipelineS))

	res.Attempted = len(ph.Samples) + ph.Unsent
	res.Failed = lat.Failed
	res.Problems = append(res.Problems, ph.Failures...)
	verify := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
		}
	}

	// Every acknowledged write is visible: after a flush, the live documents
	// carrying the sentinel are those before, plus the acknowledged adds,
	// minus the acknowledged deletes.
	if drv.check.dynamic {
		var flushed struct{}
		if err := PostData(dep.Daemon.Base+"/v1/flush", &flushed); err != nil {
			return fail(err)
		}
		got, err := drv.SentinelCount()
		if err != nil {
			return fail(err)
		}
		want := sentinel0 + drv.Adds - drv.Deletes
		verify(got == want, "after flush %d documents carry the sentinel; %d before + %d adds - %d deletes = %d",
			got, sentinel0, drv.Adds, drv.Deletes, want)
	} else {
		verifyUnion(env, wl, cfg.Seed, dep.Daemon.Base, verify)
	}

	if cfg.Trace {
		if err := traceExtras(ctx, cfg, wl, drv, dep, bins, ly); err != nil {
			return fail(err)
		}
	}

	// The rules hold for the full window; a traced run's shortened one is
	// for attribution and is not judged by them.
	for _, r := range wl.Validate {
		if cfg.Trace {
			break
		}
		m, ok := ly[r.Metric]
		if !ok || m.Null || !r.Holds(m.Value) {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"workload %s no longer stresses what it claims: %s = %v, want %s %v",
				wl.Name, r.Metric, m.Value, r.Op, r.Value))
		}
	}
	res.Correct = len(res.Problems) == 0
	report(cfg.Log, cfg, res, lat, setupS, series)
	return res, nil
}

// verifyUnion checks inclusion-exclusion on term pairs the plan draws:
// |a or b| = df(a) + df(b) - |a and b|, with the benchmark's own DFs.
func verifyUnion(env *PlanEnv, wl *Workload, seed int64, base string, verify func(bool, string, ...any)) {
	for si, st := range wl.Streams {
		if st.Terms.Hi == 0 {
			continue
		}
		g := NewGen(env, wl, si, seed, "verify", 0)
		for i := 0; i < verifyPairs; i++ {
			a, b := g.term(), g.term()
			var or, and reply
			err := GetData(base+"/v1/or?q="+a+","+b, &or)
			if err == nil {
				err = GetData(base+"/v1/and?q="+a+","+b, &and)
			}
			want := env.Truth.DF[a] + env.Truth.DF[b] - int64(and.Count)
			verify(err == nil && int64(or.Count) == want, "or(%s,%s) = %d, want df+df-and = %d (err %v)", a, b, or.Count, want, err)
		}
	}
}

// traceExtras measures what only an out-of-process run can and only a
// traced run reports: latency up the open-loop ladder, and the time a
// restarted daemon takes to answer its first query.
func traceExtras(ctx context.Context, cfg RunConfig, wl *Workload, drv *Driver, dep *Deployment, bins *Bins, ly Metrics) error {
	// Every ladder metric of the suite is reported; null where the workload
	// has no such rung.
	for _, w := range cfg.Suite.Workloads {
		for _, st := range w.Streams {
			for _, rate := range st.Ladder {
				ly.SetNull(fmt.Sprintf("driver.p99_ms_at_%.0f", rate), "ms")
			}
		}
	}
	maxOK, open := 0.0, false
	for _, st := range wl.Streams {
		for i, rate := range st.Ladder {
			open = true
			ph := drv.Run(ctx, fmt.Sprintf("rung%d", i), time.Duration(float64(cfg.Window)*cfg.Suite.RungFrac), rate)
			l := ph.Latencies()
			p99, ok := Percentile(l.Reads, 0.99)
			ly.SetIf(fmt.Sprintf("driver.p99_ms_at_%.0f", rate), "ms", float64(p99)/1e6, ok)
			if ok && p99 <= int64(ladderLimit) && float64(l.OK) >= 0.98*rate*ph.Window.Seconds() {
				maxOK = max(maxOK, rate)
			}
		}
	}
	ly.SetIf("driver.max_rate_ok_rps", "1/s", maxOK, open)

	a, b := drv.env.Truth.Ranked[0], drv.env.Truth.Ranked[1]
	var ready []float64
	for i := 0; i < restartProbes; i++ {
		took, err := dep.Restart(ctx, bins, wl, "/v1/and?q="+a+","+b)
		if err != nil {
			return err
		}
		ready = append(ready, took.Seconds()*1e3)
	}
	ly.Set("storefile.ready_ms", "ms", Median(ready))
	return nil
}

// ladderLimit is the p99 a ladder rate must stay under to count as met.
const ladderLimit = 10 * time.Millisecond

func fetchStats(base string) (map[string]float64, error) {
	var st map[string]float64
	err := GetData(base+"/v1/stats", &st)
	return st, err
}

// report prints every metric by name with its unit.
func report(w io.Writer, cfg RunConfig, res *Result, lat *Latencies, setupS []float64, series map[string][]float64) {
	fmt.Fprintf(w, "workload %s  seed %d  window %v  plan_sha256 %s\n", res.Workload, res.Seed, cfg.Window, res.PlanSHA256)
	fmt.Fprintf(w, "attempted %d  failed %d  reads %d  writes %d  set-ups %.3f s\n",
		res.Attempted, res.Failed, len(lat.Reads), len(lat.Writes), setupS)
	fmt.Fprintln(w, "end-to-end:")
	PrintMetrics(w, res.EndToEnd)
	fmt.Fprintln(w, "per slice of the window (the end-to-end value is the mean of the middle half):")
	for _, name := range SliceNames {
		fmt.Fprintf(w, "  %-40s %.4g\n", name, series[name])
	}
	fmt.Fprintln(w, "per-layer (counters are changes of /v1/stats over the timed window):")
	PrintMetrics(w, res.Layers)
	fmt.Fprintln(w, "client latency per op (successful requests):")
	for op := Op(0); op < NumOps; op++ {
		if v := lat.ByOp[op]; len(v) > 0 {
			m := Metrics{}
			m.setMS("p50", v, 0.50)
			m.setMS("p99", v, 0.99)
			fmt.Fprintf(w, "  %-8s n=%-7d p50 %s  p99 %s\n", op, len(v), m["p50"], m["p99"])
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// String renders the value with its unit, or null.
func (m Metric) String() string {
	if m.Null {
		return "null " + m.Unit
	}
	return fmt.Sprintf("%.6g %s", m.Value, m.Unit)
}

// PrintMetrics prints metrics one a line, by name.
func PrintMetrics(w io.Writer, m Metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %s\n", name, m[name])
	}
}
