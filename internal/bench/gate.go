package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"inspire/internal/serve"
)

// The CI bench-regression gate: every run writes CIMetrics as JSON
// (cmd/benchfig -ci), and cmd/benchgate fails the job when the fresh numbers
// regress past these thresholds against the committed baseline
// (BENCH_BASELINE.json). The gated quantities are virtual — modeled on the
// paper's cluster, independent of the host and of runner noise — so the
// thresholds can be tight without flaking.
const (
	// GateMaxQPSDrop fails the gate when serving throughput falls more than
	// this fraction below the baseline.
	GateMaxQPSDrop = 0.15
	// GateMinCompression is the absolute floor on the posting compression
	// ratio (PR 2's headline claim).
	GateMinCompression = 2.5
	// GateMinShardSpeedup is the absolute floor on the 4-shard throughput
	// scaling over the monolithic server (PR 3's headline claim).
	GateMinShardSpeedup = 1.5
	// GateMaxIngestDrop fails the gate when modeled ingest throughput falls
	// more than this fraction below the baseline.
	GateMaxIngestDrop = 0.15
	// GateMaxIngestP95Ratio is the absolute ceiling on query p95 latency
	// under concurrent ingestion relative to the idle baseline (the live-
	// ingestion PR's headline claim: queries keep serving while documents
	// stream in).
	GateMaxIngestP95Ratio = 2.0
	// GateMinTileSpeedup is the absolute floor on viewport rendering
	// throughput via the Galaxy tile pyramid over naive full-point Near
	// scans (the tile PR's headline claim).
	GateMinTileSpeedup = 3.0
	// GateMaxTileP95Ratio is the absolute ceiling on tile-rendering p95
	// latency under concurrent ingestion relative to idle tile serving.
	GateMaxTileP95Ratio = 2.5
)

// CIMetrics are the gated quantities of one bench run.
type CIMetrics struct {
	Scale float64 `json:"scale"`

	// ServingVirtualQPS is the modeled throughput of one deterministic
	// analyst session against the monolithic server, cold caches.
	ServingVirtualQPS float64 `json:"serving_virtual_qps"`
	// ShardedVirtualQPS4 is the same stream through a 4-shard Router.
	ShardedVirtualQPS4 float64 `json:"sharded_virtual_qps_4"`
	// ShardingSpeedup4x is their ratio.
	ShardingSpeedup4x float64 `json:"sharding_speedup_4x"`
	// CompressionRatio is flat posting bytes over block-compressed bytes.
	CompressionRatio float64 `json:"compression_ratio"`
	// IngestVirtualDPS is the modeled live-ingestion throughput: documents
	// per virtual second of add latency (tokenize + project + append +
	// amortized seals) in the deterministic interleaved stream.
	IngestVirtualDPS float64 `json:"ingest_virtual_dps"`
	// IngestQueryP95Ratio is query p95 latency with concurrent ingestion
	// over the idle p95 — how much serving degrades while documents stream
	// in.
	IngestQueryP95Ratio float64 `json:"ingest_query_p95_ratio"`
	// TileVirtualQPS is the modeled throughput of the deterministic
	// viewport render walk served from the Galaxy tile pyramid.
	TileVirtualQPS float64 `json:"tile_virtual_qps"`
	// TileSpeedupVsScan is TileVirtualQPS over the same walk rendered by
	// naive full-point Near scans.
	TileSpeedupVsScan float64 `json:"tile_speedup_vs_scan"`
	// TileIngestP95Ratio is tile-rendering p95 latency under concurrent
	// ingestion over the idle tile p95.
	TileIngestP95Ratio float64 `json:"tile_ingest_p95_ratio"`
}

// ciWorkload is the deterministic gate workload: a single session's stream
// is free of interleaving effects, so its virtual account reproduces exactly
// on any host.
var ciWorkload = serve.WorkloadConfig{Sessions: 1, OpsPerSession: 400, Seed: 1}

// CollectCI measures the gated metrics at the given scale.
func CollectCI(scale float64) (*CIMetrics, error) {
	st, err := ServingStore(scale, 8)
	if err != nil {
		return nil, err
	}
	m := &CIMetrics{Scale: scale}

	var totalPostings int64
	for _, n := range st.DF {
		totalPostings += n
	}
	m.CompressionRatio = 16 * float64(totalPostings) / float64(st.Posts.SizeBytes())

	for _, n := range []int{1, 4} {
		svc, err := ShardedService(st, n)
		if err != nil {
			return nil, err
		}
		rep, err := serve.Replay(svc, ciWorkload)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			m.ServingVirtualQPS = rep.VirtualQPS
		} else {
			m.ShardedVirtualQPS4 = rep.VirtualQPS
		}
	}
	if m.ServingVirtualQPS > 0 {
		m.ShardingSpeedup4x = m.ShardedVirtualQPS4 / m.ServingVirtualQPS
	}
	if m.IngestVirtualDPS, m.IngestQueryP95Ratio, err = CollectIngestCI(scale); err != nil {
		return nil, err
	}
	if m.TileVirtualQPS, m.TileSpeedupVsScan, m.TileIngestP95Ratio, err = CollectTileCI(scale); err != nil {
		return nil, err
	}
	return m, nil
}

// Gate compares fresh metrics against a baseline and returns the violations,
// empty when the gate passes.
func (m *CIMetrics) Gate(baseline *CIMetrics) []string {
	var out []string
	if floor := (1 - GateMaxQPSDrop) * baseline.ServingVirtualQPS; m.ServingVirtualQPS < floor {
		out = append(out, fmt.Sprintf("serving throughput %.0f virtual qps is >%.0f%% below the baseline %.0f",
			m.ServingVirtualQPS, 100*GateMaxQPSDrop, baseline.ServingVirtualQPS))
	}
	if floor := (1 - GateMaxQPSDrop) * baseline.ShardedVirtualQPS4; m.ShardedVirtualQPS4 < floor {
		out = append(out, fmt.Sprintf("4-shard throughput %.0f virtual qps is >%.0f%% below the baseline %.0f",
			m.ShardedVirtualQPS4, 100*GateMaxQPSDrop, baseline.ShardedVirtualQPS4))
	}
	if m.CompressionRatio < GateMinCompression {
		out = append(out, fmt.Sprintf("posting compression ratio %.2fx is below the gated %.1fx",
			m.CompressionRatio, GateMinCompression))
	}
	if m.ShardingSpeedup4x < GateMinShardSpeedup {
		out = append(out, fmt.Sprintf("4-shard speedup %.2fx is below the gated %.1fx",
			m.ShardingSpeedup4x, GateMinShardSpeedup))
	}
	if floor := (1 - GateMaxIngestDrop) * baseline.IngestVirtualDPS; m.IngestVirtualDPS < floor {
		out = append(out, fmt.Sprintf("ingest throughput %.0f virtual docs/sec is >%.0f%% below the baseline %.0f",
			m.IngestVirtualDPS, 100*GateMaxIngestDrop, baseline.IngestVirtualDPS))
	}
	if m.IngestQueryP95Ratio > GateMaxIngestP95Ratio {
		out = append(out, fmt.Sprintf("query p95 under ingest is %.2fx idle, above the gated %.1fx",
			m.IngestQueryP95Ratio, GateMaxIngestP95Ratio))
	}
	if floor := (1 - GateMaxQPSDrop) * baseline.TileVirtualQPS; m.TileVirtualQPS < floor {
		out = append(out, fmt.Sprintf("tile serving %.0f virtual qps is >%.0f%% below the baseline %.0f",
			m.TileVirtualQPS, 100*GateMaxQPSDrop, baseline.TileVirtualQPS))
	}
	if m.TileSpeedupVsScan < GateMinTileSpeedup {
		out = append(out, fmt.Sprintf("tile rendering speedup %.2fx over full-point scans is below the gated %.1fx",
			m.TileSpeedupVsScan, GateMinTileSpeedup))
	}
	if m.TileIngestP95Ratio > GateMaxTileP95Ratio {
		out = append(out, fmt.Sprintf("tile p95 under ingest is %.2fx idle, above the gated %.1fx",
			m.TileIngestP95Ratio, GateMaxTileP95Ratio))
	}
	return out
}

// WriteJSON persists the metrics for the gate step.
func (m *CIMetrics) WriteJSON(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCIMetrics loads a metrics file written by WriteJSON.
func ReadCIMetrics(path string) (*CIMetrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &CIMetrics{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("bench: metrics %s: %w", path, err)
	}
	return m, nil
}
