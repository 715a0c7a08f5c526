// Command benchfig regenerates the paper's evaluation figures (Figures 5-9)
// and the two ablations as text tables.
//
// Usage:
//
//	benchfig              # regenerate every figure
//	benchfig -fig 6a      # one figure
//	benchfig -list        # list available experiments
//	benchfig -scale 4096  # smaller synthetic corpora (faster, noisier)
//
// The synthetic corpora are 1/scale the size of the paper's datasets; the
// machine model re-inflates work to paper scale, so reported minutes
// correspond to the full-size runs on the 2007 PNNL cluster.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"inspire/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (5, 6a, 6b, 7a, 7b, 8, 9, A1, A2, A3); empty = all")
	scale := flag.Float64("scale", bench.DefaultScale, "dataset reduction factor (paper bytes / synthetic bytes)")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Describe)
		}
		return
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		figs, err := e.Run(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: experiment %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		for _, f := range figs {
			fmt.Println(f.Render())
		}
		fmt.Printf("[experiment %s regenerated in %.1fs host time]\n\n", e.ID, time.Since(start).Seconds())
	}

	if *fig != "" {
		e, ok := bench.FindExperiment(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchfig: unknown figure %q (use -list)\n", *fig)
			os.Exit(2)
		}
		run(e)
		return
	}
	for _, e := range bench.Experiments {
		run(e)
	}
}
