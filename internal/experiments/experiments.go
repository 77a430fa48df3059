// Package experiments reproduces the evaluation of He & Yang (ICDE 2004),
// §5: every figure is backed by a runner here, exposed through cmd/mrbench
// and the repository-level benchmarks.
//
// The cost metric is the paper's: per query, the number of index nodes
// visited during index-graph traversal plus the number of data nodes visited
// during validation. For the adaptive indexes (D(k)-promote, M(k), M*(k))
// the workload is replayed after all FUPs have been supported, so the rerun
// incurs no validation; the A(k) family generally does.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"mrx/internal/baseline"
	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/workload"
)

// Dataset is a named data graph.
type Dataset struct {
	Name  string
	Graph *graph.Graph
}

// LoadDataset builds one of the paper's datasets, "xmark" or "nasa", at the
// given scale (1.0 reproduces the paper's ~120k/~90k node documents).
func LoadDataset(name string, scale float64, seed int64) (Dataset, error) {
	switch name {
	case "xmark":
		return Dataset{Name: "xmark", Graph: datagen.XMarkGraph(scale, seed)}, nil
	case "nasa":
		return Dataset{Name: "nasa", Graph: datagen.NASAGraph(scale, seed)}, nil
	default:
		return Dataset{}, fmt.Errorf("experiments: unknown dataset %q (want xmark or nasa)", name)
	}
}

// CostRow is one point of the cost-versus-size figures (10-13, 18-22).
type CostRow struct {
	Index      string
	Nodes      int
	Edges      int
	AvgCost    float64
	AvgIndex   float64 // index-node portion of the cost
	AvgData    float64 // validation portion of the cost
	BuildTime  time.Duration
	RefineTime time.Duration
}

// CostVsSizeResult gathers all series of one cost-versus-size experiment.
type CostVsSizeResult struct {
	Dataset     string
	MaxQueryLen int
	NumQueries  int
	Rows        []CostRow
}

// Progress receives human-readable progress lines; it may be nil.
type Progress func(format string, args ...any)

func (p Progress) log(format string, args ...any) {
	if p != nil {
		p(format, args...)
	}
}

// RunCostVsSize reproduces Figures 10-13 (maxA = 7) and 18-22 (maxA = 4):
// for each index, its final size and the average workload query cost.
func RunCostVsSize(ds Dataset, queries []*pathexpr.Expr, maxA int, progress Progress) CostVsSizeResult {
	res := CostVsSizeResult{Dataset: ds.Name, NumQueries: len(queries)}
	for _, q := range queries {
		if q.Length() > res.MaxQueryLen {
			res.MaxQueryLen = q.Length()
		}
	}

	// A(k) family.
	for k := 0; k <= maxA; k++ {
		start := time.Now()
		ig := baseline.AK(ds.Graph, k)
		build := time.Since(start)
		row := CostRow{Index: fmt.Sprintf("A(%d)", k), Nodes: ig.NumNodes(), Edges: ig.NumEdges(), BuildTime: build}
		row.AvgCost, row.AvgIndex, row.AvgData = averageCost(queries, func(q *pathexpr.Expr) query.Cost {
			return query.EvalIndex(ig, q).Cost
		})
		res.Rows = append(res.Rows, row)
		progress.log("%s: %d nodes, %d edges, avg cost %.1f", row.Index, row.Nodes, row.Edges, row.AvgCost)
	}

	// D(k)-construct.
	{
		start := time.Now()
		ig, err := baseline.DKConstruct(ds.Graph, queries)
		if err != nil {
			//mrlint:allow nopanic workload queries are wildcard-free by construction
			panic(err)
		}
		row := CostRow{Index: "D(k)-construct", Nodes: ig.NumNodes(), Edges: ig.NumEdges(), BuildTime: time.Since(start)}
		row.AvgCost, row.AvgIndex, row.AvgData = averageCost(queries, func(q *pathexpr.Expr) query.Cost {
			return query.EvalIndex(ig, q).Cost
		})
		res.Rows = append(res.Rows, row)
		progress.log("%s: %d nodes, %d edges, avg cost %.1f", row.Index, row.Nodes, row.Edges, row.AvgCost)
	}

	// D(k)-promote.
	{
		dk := baseline.NewDKPromote(ds.Graph)
		start := time.Now()
		for _, q := range queries {
			dk.Support(q)
		}
		row := CostRow{Index: "D(k)-promote", Nodes: dk.Index().NumNodes(), Edges: dk.Index().NumEdges(), RefineTime: time.Since(start)}
		row.AvgCost, row.AvgIndex, row.AvgData = averageCost(queries, func(q *pathexpr.Expr) query.Cost {
			return query.EvalIndex(dk.Index(), q).Cost
		})
		res.Rows = append(res.Rows, row)
		progress.log("%s: %d nodes, %d edges, avg cost %.1f", row.Index, row.Nodes, row.Edges, row.AvgCost)
	}

	// M(k).
	{
		mk := core.NewMK(ds.Graph)
		start := time.Now()
		for _, q := range queries {
			mk.Support(q)
		}
		row := CostRow{Index: "M(k)", Nodes: mk.Index().NumNodes(), Edges: mk.Index().NumEdges(), RefineTime: time.Since(start)}
		row.AvgCost, row.AvgIndex, row.AvgData = averageCost(queries, func(q *pathexpr.Expr) query.Cost {
			return mk.Query(q).Cost
		})
		res.Rows = append(res.Rows, row)
		progress.log("%s: %d nodes, %d edges, avg cost %.1f", row.Index, row.Nodes, row.Edges, row.AvgCost)
	}

	// M*(k), queried top-down.
	{
		ms := core.NewMStar(ds.Graph)
		start := time.Now()
		for _, q := range queries {
			ms.Support(q)
		}
		sz := ms.Sizes()
		row := CostRow{Index: "M*(k)", Nodes: sz.Nodes, Edges: sz.Edges, RefineTime: time.Since(start)}
		row.AvgCost, row.AvgIndex, row.AvgData = averageCost(queries, func(q *pathexpr.Expr) query.Cost {
			return ms.QueryTopDown(q).Cost
		})
		res.Rows = append(res.Rows, row)
		progress.log("%s: %d nodes, %d edges, avg cost %.1f", row.Index, row.Nodes, row.Edges, row.AvgCost)
	}
	return res
}

// averageCost replays the workload and averages the paper's cost metric.
// Queries are evaluated concurrently: evaluation is read-only on both the
// index and the data graph, and costs are accumulated per slot so the
// result is deterministic.
func averageCost(queries []*pathexpr.Expr, eval func(*pathexpr.Expr) query.Cost) (avg, avgIdx, avgData float64) {
	costs := make([]query.Cost, len(queries))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(queries) {
		workers = len(queries)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				costs[i] = eval(queries[i])
			}
		}()
	}
	for i := range queries {
		next <- i
	}
	close(next)
	wg.Wait()

	var total query.Cost
	for _, c := range costs {
		total.Add(c)
	}
	n := float64(len(queries))
	return float64(total.Total()) / n, float64(total.IndexNodes) / n, float64(total.DataNodes) / n
}

// SizePoint is one measurement of the growth figures (14-17, 23-26).
type SizePoint struct {
	Queries int
	Nodes   int
	Edges   int
}

// GrowthResult holds the size-growth series for the incrementally refined
// indexes.
type GrowthResult struct {
	Dataset string
	Step    int
	Series  map[string][]SizePoint // keys: "D(k)-promote", "M(k)", "M*(k)"
}

// RunGrowth reproduces Figures 14-17 and 23-26: refine the three adaptive
// indexes query by query, sampling sizes every step queries.
func RunGrowth(ds Dataset, queries []*pathexpr.Expr, step int, progress Progress) GrowthResult {
	res := GrowthResult{Dataset: ds.Name, Step: step, Series: map[string][]SizePoint{}}
	dk := baseline.NewDKPromote(ds.Graph)
	mk := core.NewMK(ds.Graph)
	ms := core.NewMStar(ds.Graph)
	record := func(n int) {
		res.Series["D(k)-promote"] = append(res.Series["D(k)-promote"],
			SizePoint{n, dk.Index().NumNodes(), dk.Index().NumEdges()})
		res.Series["M(k)"] = append(res.Series["M(k)"],
			SizePoint{n, mk.Index().NumNodes(), mk.Index().NumEdges()})
		sz := ms.Sizes()
		res.Series["M*(k)"] = append(res.Series["M*(k)"], SizePoint{n, sz.Nodes, sz.Edges})
	}
	record(0)
	for i, q := range queries {
		dk.Support(q)
		mk.Support(q)
		ms.Support(q)
		if (i+1)%step == 0 || i == len(queries)-1 {
			record(i + 1)
			progress.log("after %d queries: D(k)-promote %d, M(k) %d, M*(k) %d nodes",
				i+1, dk.Index().NumNodes(), mk.Index().NumNodes(), ms.Sizes().Nodes)
		}
	}
	return res
}

// NewWorkload generates the paper's workload for a dataset: 500 queries over
// label paths of length up to 9, with query length capped at maxQueryLen
// (9 for the primary experiments, 4 for the second set).
func NewWorkload(ds Dataset, numQueries, maxQueryLen int, seed int64) []*pathexpr.Expr {
	return workload.Generate(ds.Graph, workload.Options{
		NumQueries:  numQueries,
		MaxPathLen:  9,
		MaxQueryLen: maxQueryLen,
		Seed:        seed,
	})
}

// WriteCostTable renders a cost-versus-size result as an aligned text table.
func WriteCostTable(w io.Writer, res CostVsSizeResult) {
	fmt.Fprintf(w, "dataset=%s queries=%d maxQueryLen=%d\n", res.Dataset, res.NumQueries, res.MaxQueryLen)
	fmt.Fprintf(w, "%-16s %10s %10s %12s %12s %12s\n", "index", "nodes", "edges", "avg cost", "idx part", "valid part")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-16s %10d %10d %12.1f %12.1f %12.1f\n",
			r.Index, r.Nodes, r.Edges, r.AvgCost, r.AvgIndex, r.AvgData)
	}
}

// WriteGrowthTable renders a growth result as an aligned text table.
func WriteGrowthTable(w io.Writer, res GrowthResult) {
	fmt.Fprintf(w, "dataset=%s step=%d\n", res.Dataset, res.Step)
	fmt.Fprintf(w, "%-8s", "queries")
	order := []string{"D(k)-promote", "M(k)", "M*(k)"}
	for _, s := range order {
		fmt.Fprintf(w, " %14s-nodes %14s-edges", s, s)
	}
	fmt.Fprintln(w)
	if len(res.Series[order[0]]) == 0 {
		return
	}
	for i := range res.Series[order[0]] {
		fmt.Fprintf(w, "%-8d", res.Series[order[0]][i].Queries)
		for _, s := range order {
			p := res.Series[s][i]
			fmt.Fprintf(w, " %20d %20d", p.Nodes, p.Edges)
		}
		fmt.Fprintln(w)
	}
}
