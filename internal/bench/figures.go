package bench

import (
	"fmt"
	"sync"

	"inspire/internal/core"
	"inspire/internal/invert"
	"inspire/internal/simtime"
)

// Experiment ties a figure identifier to its generator.
type Experiment struct {
	ID       string
	Describe string
	Run      func(scale float64) ([]*Figure, error)
}

// Experiments lists every regenerable table/figure of the evaluation.
var Experiments = []Experiment{
	{"5", "Overall wall clock (minutes) vs processors, PubMed and TREC, 3 sizes each", Fig5},
	{"6a", "PubMed overall speedup, 3 sizes", Fig6a},
	{"6b", "PubMed 2.75 GB: % time per component vs processors", Fig6b},
	{"7a", "TREC overall speedup, 3 sizes", Fig7a},
	{"7b", "TREC 1 GB: % time per component vs processors", Fig7b},
	{"8", "Per-component speedups, PubMed and TREC, 3 sizes each", Fig8},
	{"9", "Indexing dynamic load balancing vs static partitioning", Fig9},
	{"A1", "Ablation: GA atomic task queue vs master-worker dispatcher", FigA1},
	{"A2", "Ablation: static vs adaptive signature dimensionality", FigA2},
	{"A3", "Ablation: scanning under ideal vs NFS vs Lustre storage", FigA3},
	{"S1", "Serving: query throughput and cache effectiveness vs concurrent sessions", FigS1},
	{"S3", "Serving: sharded scatter-gather throughput and tail latency vs shard count", FigS3},
	{"S4", "Serving: query tail latency under live ingestion; refresh lag vs seal threshold", FigS4},
	{"S5", "Serving: Galaxy viewport rendering, tile pyramid vs naive full-point scans, idle and under ingest", FigS5},
}

// FindExperiment resolves an experiment by ID.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sweepCache memoizes overall sweeps: Figures 5, 6a, 7a and 8 all derive
// from the same runs, so regenerating every figure costs one sweep per
// dataset rather than four.
var sweepCache = struct {
	sync.Mutex
	m map[string]*Sweep
}{m: make(map[string]*Sweep)}

// overallSweeps runs the dataset family across PaperPs, reusing one cached
// sweep per dataset.
func overallSweeps(scale float64, specs []DatasetSpec) ([]*Sweep, error) {
	sweeps := make([]*Sweep, 0, len(specs))
	for _, spec := range specs {
		key := fmt.Sprintf("%s|%g", spec, scale)
		sweepCache.Lock()
		sw, ok := sweepCache.m[key]
		sweepCache.Unlock()
		if !ok {
			var err error
			sw, err = RunSweep(spec, PaperPs, core.Config{})
			if err != nil {
				return nil, err
			}
			sweepCache.Lock()
			sweepCache.m[key] = sw
			sweepCache.Unlock()
		}
		sweeps = append(sweeps, sw)
	}
	return sweeps, nil
}

// Fig5 regenerates the overall wall-clock figure: virtual minutes vs
// processors for the three sizes of each dataset family.
func Fig5(scale float64) ([]*Figure, error) {
	var out []*Figure
	for _, specs := range [][]DatasetSpec{PubMedSpecs(scale), TRECSpecs(scale)} {
		sweeps, err := overallSweeps(scale, specs)
		if err != nil {
			return nil, err
		}
		fig := &Figure{
			ID:     "Fig 5 (" + specs[0].Family + ")",
			Title:  specs[0].Family + " overall timings",
			XLabel: "processors",
			YLabel: "wall clock (modeled minutes)",
			X:      psLabels(PaperPs),
		}
		for _, sw := range sweeps {
			y := make([]float64, len(PaperPs))
			for i, p := range PaperPs {
				y[i] = sw.TotalMinutes(p)
			}
			fig.AddSeries(sw.Spec.Name, y)
		}
		if specs[0].Family == "Pubmed" {
			fig.Notes = append(fig.Notes,
				"largest size at small P exceeds per-processor memory; the model's pressure penalty reproduces the paper's off-trend point")
		}
		out = append(out, fig)
	}
	return out, nil
}

// speedupFigure builds a speedup figure from sweeps.
func speedupFigure(id, family string, sweeps []*Sweep) *Figure {
	fig := &Figure{
		ID:     id,
		Title:  family + " overall performance (speedup, normalized to 4 processors)",
		XLabel: "processors",
		YLabel: "speedup",
		X:      psLabels(PaperPs),
	}
	for _, sw := range sweeps {
		y := make([]float64, len(PaperPs))
		for i, p := range PaperPs {
			y[i] = sw.Speedup(p)
		}
		fig.AddSeries(sw.Spec.Name, y)
	}
	fig.Notes = append(fig.Notes,
		"speedups are drawn on the compute-bound trend: the oversized-run memory penalty stays in Figure 5's wall clock, as in the paper")
	return fig
}

// Fig6a regenerates the PubMed speedup figure.
func Fig6a(scale float64) ([]*Figure, error) {
	sweeps, err := overallSweeps(scale, PubMedSpecs(scale))
	if err != nil {
		return nil, err
	}
	return []*Figure{speedupFigure("Fig 6a", "Pubmed", sweeps)}, nil
}

// Fig7a regenerates the TREC speedup figure.
func Fig7a(scale float64) ([]*Figure, error) {
	sweeps, err := overallSweeps(scale, TRECSpecs(scale))
	if err != nil {
		return nil, err
	}
	return []*Figure{speedupFigure("Fig 7a", "TREC", sweeps)}, nil
}

// componentPercent builds the %-time-per-component figure for one dataset.
func componentPercent(id string, spec DatasetSpec) (*Figure, error) {
	fig := &Figure{
		ID:     id,
		Title:  spec.String() + ": time percentage in components",
		XLabel: "component",
		YLabel: "percent of total time",
		X:      core.Components,
	}
	sources := spec.Generate()
	for _, p := range ComponentPs {
		sum, err := core.RunStandalone(p, spec.Model(), sources, core.Config{})
		if err != nil {
			return nil, err
		}
		pct := sum.Breakdown.Percentages()
		y := make([]float64, len(core.Components))
		for i, comp := range core.Components {
			y[i] = pct[comp]
		}
		fig.AddSeries(fmt.Sprintf("%d-procs", p), y)
	}
	fig.Notes = append(fig.Notes,
		"paper: shares stay stable as P grows except topic, whose allreduce communication does not scale")
	return fig, nil
}

// Fig6b regenerates the PubMed component-percentage figure (2.75 GB).
func Fig6b(scale float64) ([]*Figure, error) {
	fig, err := componentPercent("Fig 6b", PubMedSpecs(scale)[0])
	if err != nil {
		return nil, err
	}
	return []*Figure{fig}, nil
}

// Fig7b regenerates the TREC component-percentage figure (1 GB).
func Fig7b(scale float64) ([]*Figure, error) {
	fig, err := componentPercent("Fig 7b", TRECSpecs(scale)[0])
	if err != nil {
		return nil, err
	}
	return []*Figure{fig}, nil
}

// Fig8 regenerates the eight per-component speedup panels: scanning,
// indexing, signature generation, clustering & projection for each family's
// three sizes.
func Fig8(scale float64) ([]*Figure, error) {
	panels := []struct {
		title string
		eval  func(sw *Sweep, p int) float64
	}{
		{"Scanning", func(sw *Sweep, p int) float64 { return sw.ComponentSpeedup(p, core.CompScan) }},
		{"Indexing", func(sw *Sweep, p int) float64 { return sw.ComponentSpeedup(p, core.CompIndex) }},
		{"Signature Generation", func(sw *Sweep, p int) float64 { return sw.SignatureGenSpeedup(p) }},
		{"Clustering & Projections", func(sw *Sweep, p int) float64 { return sw.ComponentSpeedup(p, core.CompClusProj) }},
	}
	var out []*Figure
	for _, specs := range [][]DatasetSpec{PubMedSpecs(scale), TRECSpecs(scale)} {
		sweeps, err := overallSweeps(scale, specs)
		if err != nil {
			return nil, err
		}
		for _, panel := range panels {
			fig := &Figure{
				ID:     "Fig 8 (" + specs[0].Family + ", " + panel.title + ")",
				Title:  panel.title + " speedup",
				XLabel: "processors",
				YLabel: "speedup",
				X:      psLabels(PaperPs),
			}
			for _, sw := range sweeps {
				y := make([]float64, len(PaperPs))
				for i, p := range PaperPs {
					y[i] = panel.eval(sw, p)
				}
				fig.AddSeries(sw.Spec.Name, y)
			}
			out = append(out, fig)
		}
	}
	return out, nil
}

// Fig9 regenerates the load-balancing effectiveness figure: indexing time
// and per-process imbalance under the paper's GA atomic task queue versus
// static partitioning.
func Fig9(scale float64) ([]*Figure, error) {
	// The GOV2-style dataset ships as a fixed set of large, uneven bundle
	// files; static source partitioning cannot balance them across many
	// processors, which is exactly the imbalance §3.3 addresses.
	spec := TRECSpecs(scale)[1]
	spec.Sources = 24
	sources := spec.Generate()
	timeFig := &Figure{
		ID:     "Fig 9 (indexing time)",
		Title:  spec.String() + ": indexing wall clock, dynamic vs static",
		XLabel: "processors",
		YLabel: "indexing time (modeled minutes)",
		X:      psLabels(ComponentPs),
	}
	balFig := &Figure{
		ID:     "Fig 9 (balance)",
		Title:  spec.String() + ": indexing imbalance (max/mean per-process time)",
		XLabel: "processors",
		YLabel: "imbalance ratio (1.0 = perfect)",
		X:      psLabels(ComponentPs),
	}
	for _, strat := range []invert.Strategy{invert.DynamicGA, invert.Static} {
		var times, bals []float64
		for _, p := range ComponentPs {
			sum, err := core.RunStandalone(p, spec.Model(), sources, core.Config{Strategy: strat})
			if err != nil {
				return nil, err
			}
			times = append(times, sum.ComponentSeconds(core.CompIndex)/60)
			bals = append(bals, sum.Breakdown.Imbalance(core.CompIndex))
		}
		timeFig.AddSeries(strat.String(), times)
		balFig.AddSeries(strat.String(), bals)
	}
	timeFig.Notes = append(timeFig.Notes, "paper: dynamic load balancing keeps indexing scalable and well balanced as P grows")
	return []*Figure{timeFig, balFig}, nil
}

// FigA1 regenerates the §3.3 comparison: the GA fetch-and-increment task
// queue versus a master-worker dispatcher, whose single dispenser serializes
// under fine-grained loads.
func FigA1(scale float64) ([]*Figure, error) {
	spec := PubMedSpecs(scale)[0]
	sources := spec.Generate()
	fig := &Figure{
		ID:     "Fig A1",
		Title:  spec.String() + ": indexing time, GA atomic task queue vs master-worker",
		XLabel: "processors",
		YLabel: "indexing time (modeled minutes)",
		X:      psLabels(PaperPs),
	}
	for _, strat := range []invert.Strategy{invert.DynamicGA, invert.MasterWorker} {
		var times []float64
		for _, p := range PaperPs {
			sum, err := core.RunStandalone(p, spec.Model(), sources, core.Config{
				Strategy: strat,
				// Fine-grained chunks stress the dispatcher.
				ChunkTokens: 1024,
			})
			if err != nil {
				return nil, err
			}
			times = append(times, sum.ComponentSeconds(core.CompIndex)/60)
		}
		fig.AddSeries(strat.String(), times)
	}
	fig.Notes = append(fig.Notes,
		"measured parity matches the paper's finding that the GA queue is 'competitive with the MPI-1 version':",
		"the dispatcher's serial service cost stays off the critical path at these load granularities, while the",
		"GA fetch-and-increment achieves the same balance in a few lines without a dedicated master")
	return []*Figure{fig}, nil
}

// FigA2 regenerates the §4.2 finding: insufficient signature dimensionality
// produces null/weak signatures and slows clustering convergence; adaptive
// dimensionality trades more dimensions for fewer iterations.
func FigA2(scale float64) ([]*Figure, error) {
	spec := PubMedSpecs(scale)[0]
	sources := spec.Generate()
	fig := &Figure{
		ID:     "Fig A2",
		Title:  spec.String() + ": static vs adaptive signature dimensionality (P=8)",
		XLabel: "metric",
		YLabel: "value",
		X: []string{"major terms N", "signature dim M", "null rate %",
			"dim retries", "kmeans iterations", "ClusProj minutes"},
	}
	// An undersized signature space (32 majors, ~3 topics) leaves a large
	// fraction of records with null signatures — the paper's §4.2 symptom.
	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"static (small)", core.Config{TopN: 32}},
		{"adaptive", core.Config{TopN: 32, AdaptiveDim: true, NullThreshold: 0.01}},
	}
	for _, c := range cfgs {
		sum, err := core.RunStandalone(8, spec.Model(), sources, c.cfg)
		if err != nil {
			return nil, err
		}
		r := sum.Result
		fig.AddSeries(c.name, []float64{
			float64(r.TopN),
			float64(r.TopM),
			100 * r.NullRate,
			float64(r.DimRetries),
			float64(r.KMeansIters),
			sum.ComponentSeconds(core.CompClusProj) / 60,
		})
	}
	fig.Notes = append(fig.Notes,
		"paper §4.2: insufficient dimensionality yields null/weak signatures and slow convergence;",
		"growing the space produces robust signatures at the cost of extra computation and memory")
	return []*Figure{fig}, nil
}

// FigA3 regenerates the §4.2 storage remark: with many processors on larger
// files, scanning turns I/O bound on a shared filer, which "can be leveraged
// by using scalable parallel file systems (e.g., Lustre)".
func FigA3(scale float64) ([]*Figure, error) {
	spec := PubMedSpecs(scale)[1]
	sources := spec.Generate()
	fig := &Figure{
		ID:     "Fig A3",
		Title:  spec.String() + ": scanning component under three storage models",
		XLabel: "processors",
		YLabel: "scan time (modeled minutes)",
		X:      psLabels(PaperPs),
	}
	storage := []struct {
		name string
		io   *simtime.IOModel
	}{
		{"ideal", nil},
		{"shared NFS", simtime.NFS2007()},
		{"Lustre", simtime.Lustre2007()},
	}
	for _, st := range storage {
		var times []float64
		for _, p := range PaperPs {
			model := spec.Model()
			model.IO = st.io
			sum, err := core.RunStandalone(p, model, sources, core.Config{})
			if err != nil {
				return nil, err
			}
			times = append(times, sum.ComponentSeconds(core.CompScan)/60)
		}
		fig.AddSeries(st.name, times)
	}
	fig.Notes = append(fig.Notes,
		"shared-filer scanning stops scaling once P saturates the backend; striped storage keeps the compute-bound trend")
	return []*Figure{fig}, nil
}

// QuickModel returns a zero-latency model for harness self-tests.
func QuickModel() *simtime.Model { return simtime.Zero() }
