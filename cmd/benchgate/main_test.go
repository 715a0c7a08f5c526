package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inspire/internal/bench"
)

// baseCI is a healthy virtual baseline every threshold case perturbs.
func baseCI() *bench.CIMetrics {
	return &bench.CIMetrics{
		Scale:               1024,
		ServingVirtualQPS:   1000,
		ShardedVirtualQPS4:  2500,
		ShardingSpeedup4x:   2.5,
		CompressionRatio:    4.0,
		IngestVirtualDPS:    800,
		IngestQueryP95Ratio: 1.2,
		TileVirtualQPS:      5000,
		TileSpeedupVsScan:   6.0,
		TileIngestP95Ratio:  1.5,
	}
}

// TestCIGateThresholds walks every gate boundary the command enforces: the
// exact edge passes, one step past it fails.
func TestCIGateThresholds(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*bench.CIMetrics)
		want int // violations
	}{
		{"identical", func(m *bench.CIMetrics) {}, 0},
		{"serving qps at floor", func(m *bench.CIMetrics) { m.ServingVirtualQPS = 850 }, 0},
		{"serving qps below floor", func(m *bench.CIMetrics) { m.ServingVirtualQPS = 849 }, 1},
		{"sharded qps below floor", func(m *bench.CIMetrics) { m.ShardedVirtualQPS4 = 2000 }, 1},
		{"compression at floor", func(m *bench.CIMetrics) { m.CompressionRatio = bench.GateMinCompression }, 0},
		{"compression below floor", func(m *bench.CIMetrics) { m.CompressionRatio = bench.GateMinCompression - 0.01 }, 1},
		{"speedup at floor", func(m *bench.CIMetrics) { m.ShardingSpeedup4x = bench.GateMinShardSpeedup }, 0},
		{"speedup below floor", func(m *bench.CIMetrics) { m.ShardingSpeedup4x = bench.GateMinShardSpeedup - 0.01 }, 1},
		{"ingest dps below floor", func(m *bench.CIMetrics) { m.IngestVirtualDPS = 600 }, 1},
		{"ingest p95 at ceiling", func(m *bench.CIMetrics) { m.IngestQueryP95Ratio = bench.GateMaxIngestP95Ratio }, 0},
		{"ingest p95 above ceiling", func(m *bench.CIMetrics) { m.IngestQueryP95Ratio = bench.GateMaxIngestP95Ratio + 0.01 }, 1},
		{"tile qps below floor", func(m *bench.CIMetrics) { m.TileVirtualQPS = 4000 }, 1},
		{"tile speedup below floor", func(m *bench.CIMetrics) { m.TileSpeedupVsScan = bench.GateMinTileSpeedup - 0.01 }, 1},
		{"tile p95 above ceiling", func(m *bench.CIMetrics) { m.TileIngestP95Ratio = bench.GateMaxTileP95Ratio + 0.01 }, 1},
		{"improvements never fail", func(m *bench.CIMetrics) {
			m.ServingVirtualQPS, m.TileVirtualQPS, m.CompressionRatio = 9000, 90000, 10
		}, 0},
	}
	for _, tc := range cases {
		cur := baseCI()
		tc.mod(cur)
		if got := cur.Gate(baseCI()); len(got) != tc.want {
			t.Errorf("%s: %d violations %v, want %d", tc.name, len(got), got, tc.want)
		}
	}
}

// TestDeltaTableMarks pins the delta rendering: improvements get a check,
// regressions a warning, lower-is-better rows invert, a zero baseline is
// n/a, and sub-0.5% noise gets no mark at all.
func TestDeltaTableMarks(t *testing.T) {
	cases := []struct {
		name string
		rows []row
		want string
	}{
		{"improvement", []row{{"m", 100, 110, true}}, "+10.0% ✅"},
		{"regression", []row{{"m", 100, 90, true}}, "-10.0% ⚠️"},
		{"lower is better improvement", []row{{"m", 100, 90, false}}, "-10.0% ✅"},
		{"lower is better regression", []row{{"m", 100, 110, false}}, "+10.0% ⚠️"},
		{"noise unmarked", []row{{"m", 1000, 1001, true}}, "+0.1% |"},
		{"zero baseline", []row{{"m", 0, 5, true}}, "n/a"},
	}
	for _, tc := range cases {
		got := renderRows("T", tc.rows)
		if !strings.Contains(got, tc.want) {
			t.Errorf("%s: table %q lacks %q", tc.name, got, tc.want)
		}
	}
}

// writeCI persists virtual metrics for the end-to-end run() cases.
func writeCI(t *testing.T, dir, name string, m *bench.CIMetrics) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := m.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunGate drives run() end to end on metric files: a healthy run passes,
// prints every gated row and appends the step summary, a regressed run fails
// with the violation on stderr, a missing file is a hard error.
func TestRunGate(t *testing.T) {
	dir := t.TempDir()
	basePath := writeCI(t, dir, "base.json", baseCI())

	good := baseCI()
	good.ServingVirtualQPS = 950
	summary := filepath.Join(dir, "summary.md")
	var out, errb bytes.Buffer
	if code := run(basePath, writeCI(t, dir, "good.json", good), summary, &out, &errb); code != 0 {
		t.Fatalf("healthy run exits %d; stderr %s", code, errb.String())
	}
	for _, want := range []string{"Bench gate (scale 1024)", "serving virtual qps", "-5.0% ⚠️", "tile p95 under ingest", "benchgate: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
	sum, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sum), "gate passed") {
		t.Fatalf("step summary lacks pass line: %s", sum)
	}

	bad := baseCI()
	bad.ServingVirtualQPS = 500 // 50% drop: past the 15% gate
	out.Reset()
	errb.Reset()
	if code := run(basePath, writeCI(t, dir, "bad.json", bad), "", &out, &errb); code != 1 {
		t.Fatalf("regressed run exits %d", code)
	}
	if !strings.Contains(errb.String(), "FAIL") || strings.Contains(out.String(), "benchgate: ok") {
		t.Fatalf("violation not reported: stdout %s stderr %s", out.String(), errb.String())
	}

	if code := run(basePath, filepath.Join(dir, "missing.json"), "", &out, &errb); code != 1 {
		t.Fatal("missing current metrics accepted")
	}
}

// TestRunScaleMismatch pins the refusal to compare runs at different scales.
func TestRunScaleMismatch(t *testing.T) {
	dir := t.TempDir()
	a, b := baseCI(), baseCI()
	b.Scale = 2048
	var out, errb bytes.Buffer
	if code := run(writeCI(t, dir, "a.json", a), writeCI(t, dir, "b.json", b), "", &out, &errb); code != 1 {
		t.Fatal("scale mismatch accepted")
	}
	if !strings.Contains(errb.String(), "scale mismatch") {
		t.Fatalf("mismatch not named: %s", errb.String())
	}
}
