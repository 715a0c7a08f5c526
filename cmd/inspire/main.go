// Command inspire runs the full parallel text-engine pipeline over a corpus
// directory and writes the ThemeView products: the 2-D document coordinates,
// the discovered themes, and an ASCII terrain rendering.
//
// Usage:
//
//	inspire -in ./corpus-dir -format pubmed -p 8 -coords out.csv
//	inspire -in ./corpus-dir -format trec -p 4 -terrain
//
// Sources are read from the directory (every regular file), statically
// partitioned by byte size across P simulated processes, and processed with
// the paper's pipeline: scan & map, parallel inverted file indexing with
// dynamic load balancing, topicality, association matrix, knowledge
// signatures, distributed k-means, and PCA projection.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"inspire/internal/core"
	"inspire/internal/corpus"
	"inspire/internal/signature"
)

func main() {
	in := flag.String("in", "", "input directory of source files (required)")
	format := flag.String("format", "pubmed", "source format: pubmed or trec")
	p := flag.Int("p", 4, "number of SPMD processes")
	coords := flag.String("coords", "", "write document coordinates (CSV: doc,x,y) to this file")
	terrain := flag.Bool("terrain", true, "print the ASCII ThemeView terrain")
	themes := flag.Bool("themes", true, "print the discovered themes")
	adaptive := flag.Bool("adaptive-dim", false, "enable adaptive signature dimensionality (paper §4.2)")
	sigOut := flag.String("signatures", "", "persist the knowledge signatures (pipeline step 7) to this file")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "inspire: -in directory is required")
		flag.Usage()
		os.Exit(2)
	}
	var f corpus.Format
	switch *format {
	case "pubmed":
		f = corpus.FormatPubMed
	case "trec":
		f = corpus.FormatTREC
	default:
		fmt.Fprintf(os.Stderr, "inspire: unknown format %q\n", *format)
		os.Exit(2)
	}

	sources, err := loadSources(*in, f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire: %v\n", err)
		os.Exit(1)
	}
	if len(sources) == 0 {
		fmt.Fprintf(os.Stderr, "inspire: no source files in %s\n", *in)
		os.Exit(1)
	}

	sum, err := core.RunStandalone(*p, nil, sources, core.Config{
		AdaptiveDim:       *adaptive,
		CollectSignatures: *sigOut != "",
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire: %v\n", err)
		os.Exit(1)
	}
	r := sum.Result
	fmt.Printf("processed %d documents, %d terms, %d topics (M=%d), null rate %.2f%%\n",
		r.TotalDocs, r.VocabSize, r.TopN, r.TopM, 100*r.NullRate)
	fmt.Printf("virtual time on modeled cluster (P=%d): %.2f minutes; host time %.2fs\n",
		*p, sum.VirtualMinutes(), sum.WallSeconds)
	fmt.Printf("host seconds per component (rank 0):%s\n", r.HostBreakdown())

	if *themes {
		fmt.Println("\nThemes:")
		for _, th := range r.Themes {
			fmt.Printf("  cluster %2d (%6d docs) at (%+.3f, %+.3f): %v\n",
				th.Cluster, th.Size, th.X, th.Y, th.Terms)
		}
	}
	if *terrain && r.Terrain != nil {
		fmt.Println("\nThemeView terrain:")
		fmt.Print(r.Terrain.ASCII())
	}
	if *coords != "" {
		if err := writeCoords(*coords, r); err != nil {
			fmt.Fprintf(os.Stderr, "inspire: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d coordinates to %s\n", len(r.Coords), *coords)
	}
	if *sigOut != "" {
		out, err := os.Create(*sigOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire: %v\n", err)
			os.Exit(1)
		}
		err = signature.Save(out, r.TopM, r.SigDocIDs, r.SigVecs)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("persisted %d knowledge signatures (M=%d) to %s\n", len(r.SigDocIDs), r.TopM, *sigOut)
	}
}

// loadSources reads every regular file of the directory as a source, in
// name order.
func loadSources(dir string, f corpus.Format) ([]*corpus.Source, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var sources []*corpus.Source
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sources = append(sources, &corpus.Source{Name: e.Name(), Format: f, Data: data})
	}
	return sources, nil
}

// writeCoords writes the final primary product of the text engine: the 2-D
// document coordinates, as the master process does in the paper.
func writeCoords(path string, r *core.Result) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	for _, pt := range r.Coords {
		if _, err := fmt.Fprintf(out, "%d,%.6f,%.6f\n", pt.Doc, pt.X, pt.Y); err != nil {
			return err
		}
	}
	return nil
}
