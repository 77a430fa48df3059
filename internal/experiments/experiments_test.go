package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func miniDataset(t *testing.T, name string) Dataset {
	t.Helper()
	ds, err := LoadDataset(name, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLoadDataset(t *testing.T) {
	for _, name := range []string{"unknown", "corpus"} {
		if _, err := LoadDataset(name, 1, 1); err == nil {
			t.Errorf("dataset %q should fail", name)
		}
	}
	ds := miniDataset(t, "xmark")
	if ds.Graph.NumNodes() < 1000 {
		t.Errorf("xmark 0.02 too small: %d", ds.Graph.NumNodes())
	}
}

func TestRunCostVsSizeShape(t *testing.T) {
	for _, name := range []string{"xmark", "nasa"} {
		ds := miniDataset(t, name)
		queries := NewWorkload(ds, 60, 9, 7)
		res := RunCostVsSize(ds, queries, 3, nil)
		rows := map[string]CostRow{}
		for _, r := range res.Rows {
			rows[r.Index] = r
		}
		// All five index families are present.
		for _, want := range []string{"A(0)", "A(3)", "D(k)-construct", "D(k)-promote", "M(k)", "M*(k)"} {
			if _, ok := rows[want]; !ok {
				t.Fatalf("%s: missing row %s", name, want)
			}
		}
		// A(k) sizes are monotone in k and A(k) cost drops from A(0) to A(3).
		if rows["A(0)"].Nodes > rows["A(1)"].Nodes || rows["A(1)"].Nodes > rows["A(2)"].Nodes {
			t.Errorf("%s: A(k) sizes not monotone", name)
		}
		// Some intermediate resolution beats A(0) (the falling part of the
		// paper's U-shaped A(k) cost curve; where the minimum sits depends
		// on scale).
		best := rows["A(0)"].AvgCost
		for _, idx := range []string{"A(1)", "A(2)", "A(3)"} {
			if rows[idx].AvgCost < best {
				best = rows[idx].AvgCost
			}
		}
		if best >= rows["A(0)"].AvgCost {
			t.Errorf("%s: no A(k) beats A(0) (%.1f)", name, rows["A(0)"].AvgCost)
		}
		// Adaptive indexes support the whole workload: zero validation cost
		// on the rerun.
		for _, idx := range []string{"D(k)-promote", "M(k)", "M*(k)"} {
			if rows[idx].AvgData != 0 {
				t.Errorf("%s: %s paid validation on rerun (%.1f)", name, idx, rows[idx].AvgData)
			}
		}
		// Paper headline: M(k) is no larger than D(k)-promote, and M*(k) has
		// the lowest query cost of the adaptive indexes.
		if rows["M(k)"].Nodes > rows["D(k)-promote"].Nodes {
			t.Errorf("%s: M(k) %d nodes > D(k)-promote %d", name, rows["M(k)"].Nodes, rows["D(k)-promote"].Nodes)
		}
		if rows["M*(k)"].AvgCost > rows["M(k)"].AvgCost+1e-9 {
			t.Errorf("%s: M*(k) cost %.1f > M(k) %.1f", name, rows["M*(k)"].AvgCost, rows["M(k)"].AvgCost)
		}
	}
}

func TestRunGrowthMonotone(t *testing.T) {
	ds := miniDataset(t, "nasa")
	queries := NewWorkload(ds, 40, 4, 3)
	res := RunGrowth(ds, queries, 10, nil)
	for series, pts := range res.Series {
		if len(pts) < 4 {
			t.Fatalf("%s: only %d points", series, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Nodes < pts[i-1].Nodes {
				t.Errorf("%s: node count shrank at step %d", series, i)
			}
		}
		if pts[len(pts)-1].Nodes <= pts[0].Nodes {
			t.Errorf("%s: no growth at all", series)
		}
	}
}

func TestRunFigureHist(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 0.02, NumQueries: 300, Seed: 2, GrowthStep: 100}
	if err := RunFigure(9, cfg, &buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "fraction") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunFigureCost(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 0.02, NumQueries: 40, Seed: 2, GrowthStep: 20}
	if err := RunFigure(19, cfg, &buf, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "D(k)-promote") || strings.Contains(out, "A(0)") {
		t.Errorf("figure 19 subset should omit D(k)-promote and A(0):\n%s", out)
	}
	if !strings.Contains(out, "M*(k)") {
		t.Errorf("figure 19 missing M*(k):\n%s", out)
	}
}

func TestRunFigureGrowth(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Scale: 0.02, NumQueries: 30, Seed: 2, GrowthStep: 10}
	if err := RunFigure(16, cfg, &buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "queries") {
		t.Errorf("growth table malformed:\n%s", buf.String())
	}
}

func TestRunFigureUnknown(t *testing.T) {
	if err := RunFigure(99, DefaultConfig(0.02), &bytes.Buffer{}, nil); err == nil {
		t.Error("unknown figure should fail")
	}
}

func TestStrategiesAblation(t *testing.T) {
	ds := miniDataset(t, "xmark")
	queries := NewWorkload(ds, 40, 4, 5)
	rows := RunStrategies(ds, queries, nil)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AvgCost <= 0 {
			t.Errorf("strategy %s: nonpositive cost", r.Strategy)
		}
		if r.AvgData != 0 {
			t.Errorf("strategy %s paid validation after refinement", r.Strategy)
		}
	}
	var buf bytes.Buffer
	WriteStrategyTable(&buf, rows)
	if !strings.Contains(buf.String(), "top-down") {
		t.Error("strategy table malformed")
	}
}

func TestLiteralAblation(t *testing.T) {
	ds := miniDataset(t, "nasa")
	queries := NewWorkload(ds, 40, 4, 5)
	rows := RunLiteralAblation(ds, queries, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].P1Violated {
		t.Error("strict mode violated P1")
	}
	var buf bytes.Buffer
	WriteLiteralTable(&buf, rows)
	if !strings.Contains(buf.String(), "paper-literal") {
		t.Error("literal table malformed")
	}
}

func TestMStarAccounting(t *testing.T) {
	ds := miniDataset(t, "xmark")
	queries := NewWorkload(ds, 30, 4, 5)
	row := RunMStarAccounting(ds, queries, nil)
	if row.Nodes > row.LogicalNodes || row.Edges > row.LogicalEdges {
		t.Errorf("dedup sizes exceed logical: %+v", row)
	}
	if row.Components < 2 {
		t.Errorf("components = %d", row.Components)
	}
}

func TestRenderFigureSVG(t *testing.T) {
	cfg := Config{Scale: 0.02, NumQueries: 40, Seed: 2, GrowthStep: 20}
	for _, id := range []int{9, 10, 16, 19} {
		var buf bytes.Buffer
		if err := RenderFigureSVG(id, cfg, &buf, nil); err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
			t.Fatalf("figure %d: not an SVG document", id)
		}
		if !strings.Contains(out, fmt.Sprintf("Figure %d", id)) {
			t.Errorf("figure %d: missing title", id)
		}
	}
	if err := RenderFigureSVG(99, cfg, &bytes.Buffer{}, nil); err == nil {
		t.Error("unknown figure should fail")
	}
}

func TestAPEXAblation(t *testing.T) {
	ds := miniDataset(t, "xmark")
	seen := NewWorkload(ds, 40, 4, 5)
	unseen := NewWorkload(ds, 40, 4, 1005)
	rows := RunAPEXAblation(ds, seen, unseen, nil)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	apex, mstar := rows[0], rows[1]
	if apex.AvgSeen > 1.01 {
		t.Errorf("APEX seen cost = %.2f, want ~1 (pure cache hits)", apex.AvgSeen)
	}
	if apex.UnseenValid == 0 {
		t.Error("APEX should validate unseen queries")
	}
	if mstar.AvgUnseen >= apex.AvgUnseen {
		t.Errorf("M*(k) should generalize better: %.1f vs %.1f", mstar.AvgUnseen, apex.AvgUnseen)
	}
	var buf bytes.Buffer
	WriteAPEXTable(&buf, rows)
	if !strings.Contains(buf.String(), "APEX") {
		t.Error("table malformed")
	}
}

func TestRenderFigureCSV(t *testing.T) {
	cfg := Config{Scale: 0.02, NumQueries: 40, Seed: 2, GrowthStep: 20}
	for _, id := range []int{8, 12, 17} {
		var buf bytes.Buffer
		if err := RenderFigureCSV(id, cfg, &buf, nil); err != nil {
			t.Fatalf("figure %d: %v", id, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(lines) < 2 {
			t.Fatalf("figure %d: CSV too short:\n%s", id, buf.String())
		}
		cols := strings.Count(lines[0], ",")
		for i, l := range lines[1:] {
			if strings.Count(l, ",") != cols {
				t.Errorf("figure %d: ragged CSV at row %d", id, i+1)
			}
		}
	}
	if err := RenderFigureCSV(99, cfg, &bytes.Buffer{}, nil); err == nil {
		t.Error("unknown figure should fail")
	}
}
