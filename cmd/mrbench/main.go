// Command mrbench regenerates the paper's evaluation (He & Yang, ICDE 2004,
// §5): every figure from 8 to 26, plus the ablations this reproduction adds.
//
// Usage:
//
//	mrbench -fig 10                # one figure, scale 0.1 by default
//	mrbench -fig all -scale 1.0    # the full paper at paper-size datasets
//	mrbench -ablation strategies   # M*(k) query-strategy comparison
//	mrbench -list                  # list figure specifications
//
// Output is a text table per figure: the same series the paper plots.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mrx/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 8..26 or all")
	ablation := flag.String("ablation", "", "ablation to run: strategies, literal, accounting, apex")
	dataset := flag.String("dataset", "xmark", "dataset for ablations: xmark or nasa")
	scale := flag.Float64("scale", 0.1, "dataset scale (1.0 = paper size)")
	queries := flag.Int("queries", 500, "workload size (paper: 500)")
	maxQueryLen := flag.Int("maxlen", 9, "max query length for ablations")
	seed := flag.Int64("seed", 1, "workload and dataset seed")
	list := flag.Bool("list", false, "list figure specifications")
	svgDir := flag.String("svg", "", "write figures as SVG charts into this directory instead of printing tables")
	csvDir := flag.String("csv", "", "write figures as CSV data into this directory instead of printing tables")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	if *list {
		for _, f := range experiments.Figures {
			fmt.Printf("fig %2d: %s\n", f.ID, f.Title)
		}
		return
	}

	progress := experiments.Progress(nil)
	if !*quiet {
		start := time.Now()
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] "+format+"\n",
				append([]any{time.Since(start).Seconds()}, args...)...)
		}
	}
	cfg := experiments.Config{Scale: *scale, NumQueries: *queries, Seed: *seed, GrowthStep: 50}

	switch {
	case *ablation != "":
		runAblation(*ablation, *dataset, cfg, *maxQueryLen, progress)
	case *fig == "all":
		for _, f := range experiments.Figures {
			if err := runOne(f.ID, cfg, *svgDir, *csvDir, progress); err != nil {
				fail(err)
			}
			fmt.Println()
		}
	case *fig != "":
		id, err := strconv.Atoi(*fig)
		if err != nil {
			fail(fmt.Errorf("bad figure %q", *fig))
		}
		if err := runOne(id, cfg, *svgDir, *csvDir, progress); err != nil {
			fail(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne renders one figure: a text table on stdout, an SVG chart, or a
// CSV data file.
func runOne(id int, cfg experiments.Config, svgDir, csvDir string, progress experiments.Progress) error {
	if svgDir == "" && csvDir == "" {
		return experiments.RunFigure(id, cfg, os.Stdout, progress)
	}
	write := func(dir, ext string, render func(io.Writer) error) error {
		if dir == "" {
			return nil
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("figure%02d.%s", id, ext))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := render(f); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if err := write(svgDir, "svg", func(w io.Writer) error {
		return experiments.RenderFigureSVG(id, cfg, w, progress)
	}); err != nil {
		return err
	}
	return write(csvDir, "csv", func(w io.Writer) error {
		return experiments.RenderFigureCSV(id, cfg, w, progress)
	})
}

func runAblation(name, dataset string, cfg experiments.Config, maxQueryLen int, progress experiments.Progress) {
	ds, err := experiments.LoadDataset(dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		fail(err)
	}
	queries := experiments.NewWorkload(ds, cfg.NumQueries, maxQueryLen, cfg.Seed)
	switch name {
	case "strategies":
		fmt.Printf("M*(k) query strategies on %s (scale %g, %d queries)\n", dataset, cfg.Scale, len(queries))
		experiments.WriteStrategyTable(os.Stdout, experiments.RunStrategies(ds, queries, progress))
	case "literal":
		fmt.Printf("M(k) literal-vs-strict refinement on %s (scale %g, %d queries)\n", dataset, cfg.Scale, len(queries))
		experiments.WriteLiteralTable(os.Stdout, experiments.RunLiteralAblation(ds, queries, progress))
	case "apex":
		unseen := experiments.NewWorkload(ds, cfg.NumQueries, maxQueryLen, cfg.Seed+1000)
		fmt.Printf("APEX-like cache vs M*(k) on %s (scale %g, %d seen + %d unseen queries)\n",
			dataset, cfg.Scale, len(queries), len(unseen))
		experiments.WriteAPEXTable(os.Stdout, experiments.RunAPEXAblation(ds, queries, unseen, progress))
	case "accounting":
		row := experiments.RunMStarAccounting(ds, queries, progress)
		fmt.Printf("M*(k) size accounting on %s (scale %g, %d queries)\n", dataset, cfg.Scale, len(queries))
		fmt.Printf("components=%d\n", row.Components)
		fmt.Printf("%-14s %10s %10s\n", "", "nodes", "edges")
		fmt.Printf("%-14s %10d %10d\n", "deduplicated", row.Nodes, row.Edges)
		fmt.Printf("%-14s %10d %10d\n", "logical", row.LogicalNodes, row.LogicalEdges)
		fmt.Printf("cross-links: %d\n", row.CrossLinks)
	default:
		fail(fmt.Errorf("unknown ablation %q (want strategies, literal, accounting or apex)", name))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mrbench: %v\n", err)
	os.Exit(1)
}
