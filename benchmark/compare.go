package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"inspire/benchmark/e2e"
)

// extraEndToEnd are end-to-end metrics every run reports and compare bounds,
// but BENCHMARK.json does not list. Its metrics must be non-zero on every
// workload and steady from run to run: writes exist on one workload only,
// the failed share is 0 when all is well, and a p99 read off a few thousand
// samples moves by a fifth between identical runs (the write p99, which sits
// on the seal stalls, by a factor of three: only a doubling counts).
// Absolute marks a bound in the metric's own unit instead of a share of the
// parent's median.
var extraEndToEnd = []struct {
	contractMetric
	Absolute bool
}{
	{contractMetric{Name: "read_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25}, false},
	{contractMetric{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25}, false},
	{contractMetric{Name: "write_p99_ms", Unit: "ms", Better: "lower", Bound: 1}, false},
	{contractMetric{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0.001}, true},
}

// claimMinPairs and claimWinShare are the guide's rule for claiming a gain:
// at least ten parent/change pairs, nine tenths of them won.
const (
	claimMinPairs = 10
	claimWinShare = 0.9
)

// compareCmd reads two sets of results written by run -out and prints, per
// workload and end-to-end metric, each side's median and quartiles and a
// verdict. It reports false when anything regressed or a claim is not met.
func compareCmd(args []string) (bool, error) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	claim := fs.String("claim", "", "metric@workload that side B claims to improve")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var sides [2][]*e2e.Result
	side := 0
	for _, arg := range fs.Args() {
		if arg == "--" {
			side = 1
			continue
		}
		rs, err := readResults(arg)
		if err != nil {
			return false, err
		}
		sides[side] = append(sides[side], rs...)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		return false, fmt.Errorf("compare needs result files on both sides of --")
	}
	c, err := loadContract()
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Printf("%-13s %-28s %31s %31s %8s  %s\n", "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "verdict")
	// Every workload side A ran, in the order it ran them.
	var workloads []string
	for _, r := range sides[0] {
		if !slices.Contains(workloads, r.Workload) {
			workloads = append(workloads, r.Workload)
		}
	}
	for _, w := range workloads {
		for _, m := range c.EndToEnd {
			ok = compareMetric(w, m, false, sides, *claim) && ok
		}
		for _, m := range extraEndToEnd {
			ok = compareMetric(w, m.contractMetric, m.Absolute, sides, *claim) && ok
		}
		for _, a := range sides[0] {
			for _, b := range sides[1] {
				if a.Workload == w && b.Workload == w && a.Seed == b.Seed && a.PlanSHA256 != b.PlanSHA256 {
					fmt.Printf("%-13s seed %d: the two sides drew different plans (%.12s, %.12s); their numbers do not compare\n",
						w, a.Seed, a.PlanSHA256, b.PlanSHA256)
					ok = false
				}
			}
		}
	}
	return ok, nil
}

func readResults(path string) ([]*e2e.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*e2e.Result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r e2e.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	return out, sc.Err()
}

// compareMetric prints one row and reports whether it is free of
// regressions and unmet claims.
func compareMetric(workload string, m contractMetric, absolute bool, sides [2][]*e2e.Result, claim string) bool {
	var vals [2][]float64
	for s, results := range sides {
		for _, r := range results {
			if v, ok := r.EndToEnd[m.Name]; ok && !v.Null && r.Workload == workload {
				vals[s] = append(vals[s], v.Value)
			}
		}
	}
	a, b := vals[0], vals[1]
	if len(a) == 0 || len(b) == 0 {
		return true // the metric does not apply to this workload
	}
	aq1, amed, aq3 := e2e.Quartiles(a)
	bq1, bmed, bq3 := e2e.Quartiles(b)
	verdict := judge(a, b, m, absolute)
	fmt.Printf("%-13s %-28s %31s %31s %+7.1f%%  %s\n", workload, m.Name,
		fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", amed, aq1, aq3, len(a)),
		fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", bmed, bq1, bq3, len(b)),
		100*(bmed-amed)/nonZero(amed), verdict)
	ok := verdict != "regressed"
	if claim == m.Name+"@"+workload {
		wins, pairs, met := claimMet(a, b, m.Better)
		fmt.Printf("%-13s claim on %s: B won %d of %d pairs (need %d pairs, %.0f%% won) and the medians are %.5g apart against A's inter-quartile range %.5g: %s\n",
			workload, m.Name, wins, pairs, claimMinPairs, 100*claimWinShare, bmed-amed, aq3-aq1, map[bool]string{true: "met", false: "NOT met"}[met])
		ok = ok && met
	}
	return ok
}

// worseSign is +1 when a larger value is worse, -1 when it is better.
func worseSign(better string) float64 {
	if better == "higher" {
		return -1
	}
	return 1
}

// judge gives the verdict on side B against side A for one metric:
// improved or regressed when the medians differ by more than the bound,
// unchanged when they do not, unresolved when the runs of one side differ
// among themselves by more than the bound, unless every run of one side
// beats every run of the other. The bound is a share of A's median, or, when
// absolute, in the metric's own unit.
func judge(a, b []float64, m contractMetric, absolute bool) string {
	aq1, amed, aq3 := e2e.Quartiles(a)
	bq1, bmed, bq3 := e2e.Quartiles(b)
	sign, scale := worseSign(m.Better), 1.0
	if !absolute {
		scale = nonZero(amed)
	}
	worse := sign * (bmed - amed) / scale
	spread := max(aq3-aq1, bq3-bq1) / scale
	switch {
	case separated(a, b, -sign):
		return "improved"
	case separated(a, b, sign) && worse > m.Bound:
		return "regressed"
	case spread > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	case -worse > m.Bound:
		return "improved"
	}
	return "unchanged"
}

// claimMet applies the rule for claiming a gain to paired runs (a[i] and
// b[i] ran back to back): enough pairs, B better in nine tenths of them
// (a tie is a win for neither), and the medians further apart than A's own
// runs are, taken as the distance between A's quartiles.
func claimMet(a, b []float64, better string) (wins, pairs int, met bool) {
	sign := worseSign(better)
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	aq1, amed, aq3 := e2e.Quartiles(a)
	_, bmed, _ := e2e.Quartiles(b)
	met = pairs >= claimMinPairs && float64(wins) >= claimWinShare*float64(pairs) && sign*(amed-bmed) > aq3-aq1
	return wins, pairs, met
}

// minSeparated is how many runs a side needs before "every run of one side
// beats every run of the other" says anything.
const minSeparated = 3

// separated reports whether every value of b lies strictly beyond every
// value of a in the direction of dir (+1 above, -1 below).
func separated(a, b []float64, dir float64) bool {
	if len(a) < minSeparated || len(b) < minSeparated {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if dir*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
