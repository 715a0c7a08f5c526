// Command layers is the in-process half of a traced benchmark run, and the
// only part of the benchmark that imports the program's packages. It builds
// the same world the daemon would, times every call into a layer's public
// functions from outside, serves the daemon's own mux behind span-recording
// wrappers, drives it with the end-to-end driver and plan, and replays the
// plan below the Querier boundary. The benchmark command starts it; see
// ../README.md for what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"inspire/benchmark/e2e"
	"inspire/internal/cluster"
	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/httpd"
	"inspire/internal/serve"
	"inspire/internal/simtime"
)

// tracedOps are the ops the per-op layer metrics are reported for.
var tracedOps = []e2e.Op{e2e.OpTerm, e2e.OpAnd, e2e.OpOr, e2e.OpSimilar, e2e.OpTheme, e2e.OpNear, e2e.OpTile, e2e.OpAdd}

// residualMinSamples is how many traced requests an op needs before its
// residual counts: below that the medians are too loose to add up.
const residualMinSamples = 200

func main() {
	suitePath := flag.String("suite", filepath.Join("benchmark", "suite.json"), "suite file")
	workload := flag.String("workload", "", "workload to trace")
	seed := flag.Int64("seed", 1, "seed of the plan")
	seconds := flag.Float64("seconds", 3, "length of each driven window")
	dir := flag.String("dir", ".", "scratch directory for the persisted store; the caller removes it")
	spans := flag.String("spans", "trace.json", "file to write the spans to")
	out := flag.String("out", "", "file to write the metrics to, as JSON")
	flag.Parse()
	if err := run(*suitePath, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *dir, *spans, *out); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(suitePath, workload string, seed int64, window time.Duration, dir, spans, out string) error {
	suite, err := e2e.LoadSuite(suitePath)
	if err != nil {
		return err
	}
	wl, err := suite.Workload(workload)
	if err != nil {
		return err
	}
	m := e2e.Metrics{}

	// Set-up, one span per call into a layer.
	c := suite.Corpus
	t := time.Now()
	sources := corpus.Generate(corpus.GenSpec{
		Format: corpus.FormatPubMed, TargetBytes: c.Bytes, Sources: c.Sources,
		Topics: c.Topics, VocabSize: c.Vocab, Seed: c.Seed,
	})
	m.Set("corpus.generate_s", "s", time.Since(t).Seconds())
	raw := make([][]byte, len(sources))
	for i, s := range sources {
		raw[i] = s.Data
	}
	env := &e2e.PlanEnv{Suite: suite, Truth: e2e.BuildTruth(raw)}

	st, err := index(sources, c.P, m)
	if err != nil {
		return err
	}
	if err := installMeta(st, suite.Meta, env.Truth.Docs, m); err != nil {
		return err
	}
	storePath := filepath.Join(dir, "run.store")
	if wl.Shards > 1 {
		t = time.Now()
		if _, err := st.Shard(wl.Shards); err != nil {
			return err
		}
		m.Set("serve.shard_s", "s", time.Since(t).Seconds())
		t = time.Now()
		err = st.SaveShards(storePath, wl.Shards)
	} else {
		m.Set("serve.shard_s", "s", 0)
		t = time.Now()
		err = st.SaveFile(storePath)
	}
	if err != nil {
		return err
	}
	m.Set("storefile.save_s", "s", time.Since(t).Seconds())

	load := func() (serve.Service, error) {
		return serve.LoadServiceFile(storePath, serve.Config{Replicas: wl.Replicas})
	}
	t = time.Now()
	svc, err := load()
	if err != nil {
		return err
	}
	m.Set("storefile.load_ms", "ms", time.Since(t).Seconds()*1e3)

	// The daemon's own mux, between a handler wrapper and a Service
	// decorator that record spans, on a loopback listener.
	rec := &recorder{}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rec.handler(httpd.New(tracedService{svc}, "").Mux())}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(l) // returns ErrServerClosed at Close below
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	ctx := context.Background()
	drv, err := e2e.NewDriver(env, wl, seed, "http://"+l.Addr().String())
	if err != nil {
		return err
	}
	defer drv.Close()
	warm := time.Duration(float64(window) * suite.WarmupFrac)
	drv.Run(ctx, "warmup", warm, 0)
	// The same plan twice: spans off, then on. The difference in throughput
	// is what tracing costs.
	off := drv.Run(ctx, "timed", window, 0)
	rec.on.Store(true)
	on := drv.Run(ctx, "timed", window, 0)
	rec.on.Store(false)
	traces := rec.take()

	offLat, onLat := off.Latencies(), on.Latencies()
	if offLat.Failed+onLat.Failed > 0 {
		return fmt.Errorf("%d traced requests failed: %v", offLat.Failed+onLat.Failed, append(off.Failures, on.Failures...))
	}
	qpsOff, qpsOn := float64(offLat.OK)/window.Seconds(), float64(onLat.OK)/window.Seconds()
	m.Set("trace.overhead_frac", "ratio", 1-qpsOn/qpsOff)
	table := attribute(on.Samples, traces, m)
	if err := writeSpans(spans, on.Start, on.Samples, traces); err != nil {
		return err
	}

	// Below the Querier boundary: the same plan, called directly.
	if err := replay(env, wl, seed, warm, load, m); err != nil {
		return err
	}
	kernels(env, wl, seed, st, m)

	fmt.Printf("traced window: %d requests with spans on (%.0f/s), %.0f/s with spans off\n", onLat.OK, qpsOn, qpsOff)
	fmt.Print(table)
	fmt.Println("per-layer (traced run, in process):")
	e2e.PrintMetrics(os.Stdout, m)
	data, err := json.Marshal(struct {
		PlanSHA256 string      `json:"plan_sha256"`
		Layers     e2e.Metrics `json:"layers"`
	}{e2e.PlanHash(env, wl, seed, window), m})
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// index runs the batch pipeline and the snapshot export in one world, as
// the daemon does, timing each on rank 0, and reads the modeled seconds of
// every pipeline component off the virtual clocks.
func index(sources []*corpus.Source, p int, m e2e.Metrics) (*serve.Store, error) {
	w, err := cluster.NewWorld(p, nil)
	if err != nil {
		return nil, err
	}
	var st *serve.Store
	err = w.Run(func(c *cluster.Comm) error {
		t := time.Now()
		res, err := core.Run(c, sources, core.Config{CollectSignatures: true})
		if err != nil {
			return err
		}
		ran := time.Since(t)
		t = time.Now()
		got, err := serve.Snapshot(c, res)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			st = got
			m.Set("core.run_s", "s", ran.Seconds())
			m.Set("serve.snapshot_s", "s", time.Since(t).Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := simtime.Collect(w.Timelines())
	for _, comp := range core.Components {
		m.Set("core.virtual_s."+comp, "s", b.Max(comp))
	}
	return st, nil
}

// installMeta attaches the suite's metadata to every base document.
func installMeta(st *serve.Store, meta e2e.MetaSpec, n int64, m e2e.Metrics) error {
	docs, times, facets := make([]int64, n), make([]int64, n), make([][]string, n)
	for d := int64(0); d < n; d++ {
		docs[d], times[d] = d, meta.TSBase+d*meta.TSStep
		for _, f := range meta.Facets {
			facets[d] = append(facets[d], f.Value(d))
		}
	}
	t := time.Now()
	err := st.SetBaseMeta(docs, times, facets)
	m.Set("serve.meta.install_s", "s", time.Since(t).Seconds())
	return err
}

// attribute splits every traced request's client latency into net, httpd
// parse, serve and httpd encode. Per request the four add up exactly. For
// each op it reports the mean of each part over the typical requests, those
// whose client latency lies between the op's 40th and 60th percentiles: the
// layers of the request the client's p50 describes. (Medians of the parts
// taken one by one do not add up when an op mixes cheap and dear requests,
// as tile does.) It returns the layer-by-layer table.
func attribute(samples []e2e.Sample, traces map[uint64]*reqTrace, m e2e.Metrics) string {
	type parts struct{ client, net, parse, serve, encode int64 }
	var byOp [e2e.NumOps][]parts
	for _, s := range samples {
		rt := traces[s.ID]
		if rt == nil || rt.first.IsZero() || s.Fail {
			continue
		}
		client := s.Lat - s.Lag // from send, not from due: queueing in the driver is not a layer
		byOp[s.Op] = append(byOp[s.Op], parts{
			client: client,
			net:    client - int64(rt.end.Sub(rt.start)),
			parse:  int64(rt.first.Sub(rt.start)),
			serve:  int64(rt.last.Sub(rt.first)),
			encode: int64(rt.end.Sub(rt.last)),
		})
	}
	table := fmt.Sprintf("%-8s %7s %10s %9s %9s %9s %9s %8s\n", "op", "n", "client_p50", "net", "parse", "serve", "encode", "residual")
	worst := 0.0
	for _, op := range tracedOps {
		all, name := byOp[op], op.String()
		sort.Slice(all, func(i, j int) bool { return all[i].client < all[j].client })
		clients := make([]int64, len(all))
		for i, p := range all {
			clients[i] = p.client
		}
		p50, ok50 := e2e.Percentile(clients, 0.50)
		p99, ok99 := e2e.Percentile(clients, 0.99)
		m.SetIf("client.p50_ms."+name, "ms", float64(p50)/1e6, ok50)
		m.SetIf("client.p99_ms."+name, "ms", float64(p99)/1e6, ok99)
		var mean parts
		band := all[len(all)*2/5 : (len(all)*3+4)/5]
		for _, p := range band {
			mean.net += p.net
			mean.parse += p.parse
			mean.serve += p.serve
			mean.encode += p.encode
		}
		us := func(sum int64) float64 { return float64(sum) / float64(max(1, len(band))) / 1e3 }
		m.Set("net.us."+name, "us", us(mean.net))
		m.Set("httpd.parse.us."+name, "us", us(mean.parse))
		m.Set("serve.us."+name, "us", us(mean.serve))
		m.Set("httpd.encode.us."+name, "us", us(mean.encode))
		if !ok50 {
			continue
		}
		sum := us(mean.net + mean.parse + mean.serve + mean.encode)
		residual := sum/(float64(p50)/1e3) - 1
		if len(all) >= residualMinSamples {
			worst = max(worst, max(residual, -residual))
		}
		table += fmt.Sprintf("%-8s %7d %10.1f %9.1f %9.1f %9.1f %9.1f %+7.1f%%\n", name, len(all),
			float64(p50)/1e3, us(mean.net), us(mean.parse), us(mean.serve), us(mean.encode), residual*100)
	}
	// The residual is how far the parts of the typical requests are from
	// adding up to the client's p50, for the worst op with enough samples.
	m.Set("trace.residual_frac", "ratio", worst)
	return table
}

// median returns the middle of v, 0 when empty. It sorts v.
func median(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}
