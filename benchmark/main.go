// Command benchmark is the repository's benchmark: it builds the program
// from the checkout, sets it up out of process, drives one of four workloads
// over loopback HTTP, checks the answers, and prints every metric by name
// with its unit. BENCHMARK.json at the root of the repository is its
// contract; suite.json beside this file holds the workloads as data;
// README.md explains both.
//
//	go run ./benchmark run -workload lookup-hot -seed 1
//	go run ./benchmark run -workload similar-cold -seed 1 -trace 1
//	go run ./benchmark run -all -seed 1 -out a.jsonl
//	go run ./benchmark compare a.jsonl -- b.jsonl
//
// It must run from the root of the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"inspire/benchmark/e2e"
)

// workDir holds everything a run leaves behind: built binaries, and the
// run's temporary files until it ends. It is inside the checkout and named
// in .gitignore.
const workDir = ".bench_build"

// traceShare is the share of -seconds a traced run gives to each of its
// three windows: out of process, in process with spans off, and with spans
// on.
const traceShare = 0.3

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// A signal cancels the context; every child process is started under it
	// and every temporary directory is removed by a deferred call, so an
	// interrupted run leaves no daemon and no files behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	var err error
	correct := true
	switch os.Args[1] {
	case "run":
		correct, err = runCmd(ctx, os.Args[2:])
	case "compare":
		correct, err = compareCmd(os.Args[2:])
	default:
		usage()
	}
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark run -workload NAME -seed N [-seconds S] [-trace 0|1] [-out FILE]
  benchmark run -all -seed N [-seconds S] [-out FILE]
  benchmark compare [-claim metric@workload] A.jsonl... -- B.jsonl...`)
	os.Exit(2)
}

// contract is the part of BENCHMARK.json the run reads: which metrics the
// result line must carry.
type contract struct {
	RunSeconds int              `json:"run_seconds"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract() (*contract, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of the checkout)", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func runCmd(ctx context.Context, args []string) (bool, error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run (see suite.json)")
	all := fs.Bool("all", false, "run every workload of suite.json in turn")
	seed := fs.Int64("seed", 1, "seed of the corpus, the plan and the arrival schedule")
	seconds := fs.Float64("seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	out := fs.String("out", "", "append each full result to this file, one JSON object a line")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	c, err := loadContract()
	if err != nil {
		return false, err
	}
	r := &runner{contract: c, suitePath: filepath.Join("benchmark", "suite.json"), workDir: workDir, log: os.Stdout}
	if r.suite, err = e2e.LoadSuite(r.suitePath); err != nil {
		return false, err
	}
	if *seconds <= 0 {
		*seconds = float64(c.RunSeconds)
	}
	var names []string
	switch {
	case *all:
		for _, w := range r.suite.Workloads {
			names = append(names, w.Name)
		}
	case *workload != "":
		names = []string{*workload}
	default:
		return false, fmt.Errorf("run needs -workload NAME or -all")
	}
	correct := true
	for _, name := range names {
		res, line, err := r.run(ctx, name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			return false, err
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				return false, err
			}
		}
		fmt.Println(line)
		correct = correct && res.Correct
	}
	return correct, nil
}

// runner holds what every run of one invocation shares.
type runner struct {
	contract  *contract
	suitePath string
	suite     *e2e.Suite
	workDir   string
	log       io.Writer
}

// run measures one workload and returns the full result and the result
// line. seconds is the -seconds argument: the timed window of an untraced
// run, and what a traced run splits between its windows.
func (r *runner) run(ctx context.Context, workload string, seed int64, seconds time.Duration, trace bool) (*e2e.Result, string, error) {
	if err := os.MkdirAll(r.workDir, 0o755); err != nil {
		return nil, "", err
	}
	cfg := e2e.RunConfig{
		Suite: r.suite, Workload: workload, Seed: seed, Window: seconds,
		Trace: trace, WorkDir: r.workDir, Log: r.log,
	}
	want := r.contract.EndToEnd
	if trace {
		cfg.Window = time.Duration(float64(seconds) * traceShare)
		want = r.contract.PerLayer
	}
	res, err := e2e.Run(ctx, cfg)
	if err != nil {
		return nil, "", err
	}
	got := res.EndToEnd
	if trace {
		if err := r.runLayers(ctx, cfg, res); err != nil {
			return nil, "", err
		}
		got = res.Layers
	}
	line, err := resultLine(res, got, want, trace)
	return res, line, err
}

// runLayers builds and runs the in-process half of a traced run, the only
// code of the benchmark that calls into the program's packages, and merges
// what it measured into the result. It is a program of its own so that a
// refactor that breaks it cannot break the end-to-end runs.
func (r *runner) runLayers(ctx context.Context, cfg e2e.RunConfig, res *e2e.Result) error {
	bin := filepath.Join(r.workDir, "bin")
	if err := e2e.GoBuild(ctx, bin, "./benchmark/layers"); err != nil {
		return err
	}
	// The scratch directory is made and removed here, not by the child, so
	// that it goes even when the child is killed.
	tmp, err := os.MkdirTemp(r.workDir, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	outPath := filepath.Join(tmp, "metrics.json")
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "layers"+e2e.ExeSuffix),
		"-suite", r.suitePath, "-workload", cfg.Workload,
		"-seed", fmt.Sprint(cfg.Seed), "-seconds", fmt.Sprint(cfg.Window.Seconds()),
		"-dir", tmp, "-out", outPath,
		"-spans", filepath.Join(r.workDir, fmt.Sprintf("trace-%s-%d.json", cfg.Workload, cfg.Seed)))
	cmd.Stdout, cmd.Stderr = r.log, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		return err
	}
	var got struct {
		PlanSHA256 string      `json:"plan_sha256"`
		Layers     e2e.Metrics `json:"layers"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("%s: %w", outPath, err)
	}
	if got.PlanSHA256 != res.PlanSHA256 {
		return fmt.Errorf("the traced run drew plan %s, the end-to-end run %s: the two no longer generate the same corpus", got.PlanSHA256, res.PlanSHA256)
	}
	maps.Copy(res.Layers, got.Layers)
	return nil
}

// resultLine renders the last line of a run: correct, attempted, failed,
// and exactly the metrics the contract lists for this kind of run. An
// end-to-end metric must have a value; a per-layer metric that does not
// apply to the workload reads 0.
func resultLine(res *e2e.Result, got e2e.Metrics, want []contractMetric, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || (m.Null && !traced) {
			return "", fmt.Errorf("BENCHMARK.json lists %s, which workload %s did not measure", w.Name, res.Workload)
		}
		if m.Unit != w.Unit {
			return "", fmt.Errorf("BENCHMARK.json gives %s the unit %q, the run measured %q", w.Name, w.Unit, m.Unit)
		}
		line.Metrics[w.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func appendResult(path string, res *e2e.Result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
