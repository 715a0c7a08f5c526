package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"inspire/benchmark/e2e"
)

// TestSmoke runs every workload, and one traced run, on a 1 MB corpus with
// one-second windows, and checks that each result line carries exactly the
// metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the result line needs /proc for the daemon's CPU time and peak memory")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the daemon with")
	}
	t.Chdir("..") // the benchmark runs from the root of the checkout
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	suite, err := e2e.LoadSuite(filepath.Join("benchmark", "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The workloads' self-checks hold for the full corpus and window only.
	suite.Corpus.Bytes, suite.Setups = 1_000_000, 1
	for i := range suite.Workloads {
		suite.Workloads[i].Validate = nil
	}
	dir := t.TempDir()
	data, err := json.Marshal(suite)
	if err != nil {
		t.Fatal(err)
	}
	suitePath := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(suitePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	r := &runner{contract: c, suitePath: suitePath, suite: suite, workDir: dir, log: &log}

	check := func(name string, trace bool, want []contractMetric) {
		t.Helper()
		log.Reset()
		res, line, err := r.run(context.Background(), name, 1, time.Second, trace)
		if err != nil {
			t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || len(res.PlanSHA256) != 64 {
			t.Errorf("%s trace=%v: correct %v, failed %d, plan %q, problems %v", name, trace, res.Correct, res.Failed, res.PlanSHA256, res.Problems)
		}
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil || got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Fatalf("%s: result line %s: %v", name, line, err)
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(got.Metrics), len(want))
		}
		for _, w := range want {
			m, ok := got.Metrics[w.Name]
			if !ok || m.Value == nil || m.Unit != w.Unit {
				t.Errorf("%s trace=%v: metric %s [%s] printed as %+v", name, trace, w.Name, w.Unit, m)
			}
			if !strings.Contains(log.String(), w.Name) {
				t.Errorf("%s trace=%v: the report does not name %s", name, trace, w.Name)
			}
		}
	}
	for _, w := range suite.Workloads {
		check(w.Name, false, c.EndToEnd)
	}
	check("galaxy-pan", true, c.PerLayer) // the open-loop ladder
	check("ingest-mixed", true, c.PerLayer)
}

func TestJudge(t *testing.T) {
	lower := contractMetric{Name: "read_p50_ms", Better: "lower", Bound: 0.10}
	higher := contractMetric{Name: "qps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		a, b     []float64
		m        contractMetric
		absolute bool
		want     string
	}{
		{"same", []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, lower, false, "unchanged"},
		{"slower", []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, lower, false, "regressed"},
		{"faster", []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, lower, false, "improved"},
		{"higher is better", []float64{100, 101, 99}, []float64{80, 81, 79}, higher, false, "regressed"},
		{"noisy", []float64{10, 14, 7, 12, 8}, []float64{11, 7, 14, 9, 12}, lower, false, "unresolved"},
		{"noisy but apart", []float64{10, 14, 7, 12, 8}, []float64{5, 6, 4, 6.5, 5.5}, lower, false, "improved"},
		{"small but every run better", []float64{10, 10.01, 10.02}, []float64{9.9, 9.91, 9.92}, lower, false, "improved"},
		{"one run each, within bound", []float64{10}, []float64{10.5}, lower, false, "unchanged"},
		{"absolute", []float64{0, 0, 0}, []float64{0.002, 0.002, 0.003}, contractMetric{Better: "lower", Bound: 0.001}, true, "regressed"},
		{"absolute within", []float64{0, 0, 0}, []float64{0, 0.0005, 0}, contractMetric{Better: "lower", Bound: 0.001}, true, "unchanged"},
	} {
		if got := judge(tc.a, tc.b, tc.m, tc.absolute); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestClaimRule(t *testing.T) {
	a := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	shift := func(by float64) []float64 {
		b := make([]float64, len(a))
		for i := range a {
			b[i] = a[i] + by
		}
		return b
	}
	if _, _, met := claimMet(a, shift(-1), "lower"); !met {
		t.Error("ten of ten pairs won by a wide margin: claim not met")
	}
	if _, _, met := claimMet(a, shift(-0.05), "lower"); met {
		t.Error("a gap inside the parent's own spread met the claim")
	}
	if _, _, met := claimMet(a[:9], shift(-1)[:9], "lower"); met {
		t.Error("nine pairs met the claim")
	}
	b := shift(-1)
	b[0], b[1] = 11, 11
	if wins, _, met := claimMet(a, b, "lower"); met || wins != 8 {
		t.Errorf("eight of ten pairs won: wins %d, met %v", wins, met)
	}
	if _, _, met := claimMet(a, shift(1), "higher"); !met {
		t.Error("higher-is-better claim not met")
	}
}
