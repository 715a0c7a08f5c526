// Command benchgate is the CI bench-regression gate of the virtual plane: it
// compares the metrics a fresh benchfig run wrote against the committed
// baseline and exits non-zero when they regressed past the gated thresholds.
//
//	benchfig -ci BENCH_CI.json
//	benchgate -baseline BENCH_BASELINE.json -current BENCH_CI.json
//
// The metrics are modeled on the paper's cluster, so they reproduce exactly
// across hosts and the thresholds can be tight (15%, absolute floors on
// compression and the sharding/tile speedups). Measured performance is not
// gated here: that is the repository benchmark's compare rule
// (go run ./benchmark compare).
//
// It always prints a baseline-vs-current delta table (markdown), and when
// $GITHUB_STEP_SUMMARY is set — i.e. inside a GitHub Actions job — the same
// table is appended there, so every PR shows its trajectory in the run
// summary. When an intentional change shifts the numbers, regenerate and
// commit the baseline in the same PR.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"inspire/internal/bench"
)

// row is one metric of the delta table; higherIsBetter orients the delta
// arrow.
type row struct {
	name           string
	base, cur      float64
	higherIsBetter bool
}

// renderRows renders a titled markdown delta table over the rows.
func renderRows(title string, rows []row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s\n\n", title)
	sb.WriteString("| metric | baseline | current | delta |\n|---|---:|---:|---:|\n")
	for _, r := range rows {
		delta := "n/a"
		if r.base != 0 {
			pct := 100 * (r.cur - r.base) / r.base
			mark := ""
			switch {
			case pct > 0.5 && r.higherIsBetter, pct < -0.5 && !r.higherIsBetter:
				mark = " ✅"
			case pct < -0.5 && r.higherIsBetter, pct > 0.5 && !r.higherIsBetter:
				mark = " ⚠️"
			}
			delta = fmt.Sprintf("%+.1f%%%s", pct, mark)
		}
		fmt.Fprintf(&sb, "| %s | %.2f | %.2f | %s |\n", r.name, r.base, r.cur, delta)
	}
	return sb.String()
}

// deltaTable renders the comparison as markdown.
func deltaTable(base, cur *bench.CIMetrics) string {
	return renderRows(fmt.Sprintf("Bench gate (scale %g)", cur.Scale), []row{
		{"serving virtual qps", base.ServingVirtualQPS, cur.ServingVirtualQPS, true},
		{"4-shard virtual qps", base.ShardedVirtualQPS4, cur.ShardedVirtualQPS4, true},
		{"sharding speedup (4x)", base.ShardingSpeedup4x, cur.ShardingSpeedup4x, true},
		{"compression ratio", base.CompressionRatio, cur.CompressionRatio, true},
		{"ingest virtual docs/sec", base.IngestVirtualDPS, cur.IngestVirtualDPS, true},
		{"query p95 under ingest (x idle)", base.IngestQueryP95Ratio, cur.IngestQueryP95Ratio, false},
		{"tile virtual qps", base.TileVirtualQPS, cur.TileVirtualQPS, true},
		{"tile speedup vs full scan", base.TileSpeedupVsScan, cur.TileSpeedupVsScan, true},
		{"tile p95 under ingest (x idle)", base.TileIngestP95Ratio, cur.TileIngestP95Ratio, false},
	})
}

// gate loads both metric files and returns the rendered delta table, the
// violations and the one-line pass verdict.
func gate(baselinePath, currentPath string) (table string, violations []string, verdict string, err error) {
	base, err := bench.ReadCIMetrics(baselinePath)
	if err != nil {
		return "", nil, "", err
	}
	cur, err := bench.ReadCIMetrics(currentPath)
	if err != nil {
		return "", nil, "", err
	}
	if base.Scale != cur.Scale {
		return "", nil, "", fmt.Errorf("scale mismatch: baseline %g, current %g", base.Scale, cur.Scale)
	}
	verdict = fmt.Sprintf("benchgate: ok — serving %.0f virtual qps (baseline %.0f), 4-shard %.0f (%.2fx), compression %.2fx, "+
		"ingest %.0f virtual docs/sec (query p95 %.2fx idle), tiles %.0f virtual qps (%.1fx vs scans, p95 %.2fx under ingest)",
		cur.ServingVirtualQPS, base.ServingVirtualQPS, cur.ShardedVirtualQPS4, cur.ShardingSpeedup4x,
		cur.CompressionRatio, cur.IngestVirtualDPS, cur.IngestQueryP95Ratio,
		cur.TileVirtualQPS, cur.TileSpeedupVsScan, cur.TileIngestP95Ratio)
	return deltaTable(base, cur), cur.Gate(base), verdict, nil
}

// run is main behind testable seams: parsed flags in, exit code out.
func run(baselinePath, currentPath, summaryPath string, stdout, stderr io.Writer) int {
	table, violations, verdict, err := gate(baselinePath, currentPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchgate: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, table)
	// Inside GitHub Actions, publish the same table (plus any violations)
	// to the job's step summary so the perf trajectory is visible per PR.
	if summaryPath != "" {
		summary := table
		for _, v := range violations {
			summary += fmt.Sprintf("\n- ❌ %s", v)
		}
		if len(violations) == 0 {
			summary += "\n- ✅ gate passed\n"
		} else {
			summary += "\n"
		}
		if f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			_, _ = f.WriteString(summary)
			_ = f.Close()
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(stderr, "benchgate: FAIL: %s\n", v)
		}
		return 1
	}
	fmt.Fprintln(stdout, verdict)
	return 0
}

func main() {
	baseline := flag.String("baseline", "BENCH_BASELINE.json", "committed baseline metrics")
	current := flag.String("current", "BENCH_CI.json", "metrics of this run (benchfig -ci)")
	flag.Parse()
	os.Exit(run(*baseline, *current, os.Getenv("GITHUB_STEP_SUMMARY"), os.Stdout, os.Stderr))
}
