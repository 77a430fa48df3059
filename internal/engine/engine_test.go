package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mrx/internal/adapt"
	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

var testQueries = []string{
	"//open_auction/bidder/personref",
	"//person/name",
	"//item/description",
	"//closed_auction/price",
	"//open_auction/bidder/personref/person",
	"//person/watches/watch",
}

// TestConcurrentReadersOneRefiner is the acceptance test for the snapshot
// scheme: 8 reader goroutines hammer Query while one writer applies
// Support refinements, and every answer must equal the ground truth at all
// times. Run under -race.
func TestConcurrentReadersOneRefiner(t *testing.T) {
	g := datagen.XMarkGraph(0.01, 1)
	en := mustNew(t, g, Options{Parallelism: 4})

	exprs := make([]*pathexpr.Expr, len(testQueries))
	truth := make([][]int, len(testQueries))
	for i, s := range testQueries {
		exprs[i] = mustParse(s)
		ans := en.Eval(exprs[i])
		truth[i] = make([]int, len(ans))
		for j, o := range ans {
			truth[i][j] = int(o)
		}
	}
	check := func(qi int, res query.Result) bool {
		if len(res.Answer) != len(truth[qi]) {
			return false
		}
		for j, o := range res.Answer {
			if int(o) != truth[qi][j] {
				return false
			}
		}
		return true
	}

	const readers = 8
	const iterations = 150
	var wg sync.WaitGroup
	errc := make(chan string, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < iterations; it++ {
				qi := (r + it) % len(exprs)
				if res := en.Query(exprs[qi]); !check(qi, res) {
					select {
					case errc <- testQueries[qi]:
					default:
					}
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass < 2; pass++ {
			for _, e := range exprs {
				en.Support(e)
			}
		}
	}()

	wg.Wait()
	select {
	case q := <-errc:
		t.Fatalf("reader observed a wrong answer for %s", q)
	default:
	}

	if en.Generation() == 0 {
		t.Fatal("no snapshot was ever published")
	}
	for i, e := range exprs {
		res := en.Query(e)
		if !res.Precise {
			t.Errorf("%s still imprecise after refinement", testQueries[i])
		}
		if !check(i, res) {
			t.Errorf("%s wrong answer after refinement", testQueries[i])
		}
	}

	st := en.Stats()
	if st.Queries < readers*iterations {
		t.Errorf("queries served = %d, want >= %d", st.Queries, readers*iterations)
	}
	if st.SnapshotPublishes != st.Refinements || st.SnapshotPublishes == 0 {
		t.Errorf("publishes = %d, refinements = %d", st.SnapshotPublishes, st.Refinements)
	}
	if st.Generation != st.SnapshotPublishes {
		t.Errorf("generation = %d, publishes = %d", st.Generation, st.SnapshotPublishes)
	}
}

// TestConcurrentReadersCyclicGraph repeats the readers×refiner check on a
// random cyclic graph (reference edges), where refinement takes the
// regrouping paths.
func TestConcurrentReadersCyclicGraph(t *testing.T) {
	g := gtest.Random(7, 3000, 10, 0.15)
	en := mustNew(t, g, Options{})
	exprs := []*pathexpr.Expr{
		pathexpr.FromLabels([]string{"l1", "l2"}),
		pathexpr.FromLabels([]string{"l3", "l4", "l5"}),
		pathexpr.FromLabels([]string{"l0", "l1", "l2", "l3"}),
	}
	truth := make([][]int, len(exprs))
	for i, e := range exprs {
		for _, o := range en.Eval(e) {
			truth[i] = append(truth[i], int(o))
		}
	}

	var wg sync.WaitGroup
	fail := make(chan int, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < 100; it++ {
				qi := (r + it) % len(exprs)
				res := en.Query(exprs[qi])
				if len(res.Answer) != len(truth[qi]) {
					select {
					case fail <- qi:
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range exprs {
			en.Support(e)
		}
	}()
	wg.Wait()
	select {
	case qi := <-fail:
		t.Fatalf("wrong answer for query %d", qi)
	default:
	}
}

// The writer refines its index in place, so every public read of it —
// SupportedFUPs and Snapshot — must take the writer's lock. One goroutine
// runs Support and Retire while the others call SupportedFUPs, Stats,
// QueryCtx and Snapshot; under -race (make check) an unlocked read fails.
// Every answer must stay exact, and every Snapshot copy must be a valid
// M*(k)-index whose registry lists only FUPs of the workload.
func TestWriterIndexReadsUnderLock(t *testing.T) {
	g := datagen.XMarkGraph(0.005, 9)
	en := mustNew(t, g, Options{Parallelism: 2})
	exprs := make([]*pathexpr.Expr, len(testQueries))
	truth := make([][]graph.NodeID, len(testQueries))
	known := map[string]bool{}
	for i, s := range testQueries {
		exprs[i] = mustParse(s)
		truth[i] = en.Eval(exprs[i])
		known[pathexpr.Canonical(exprs[i])] = true
	}

	done := make(chan struct{})
	var wg, ready sync.WaitGroup
	errc := make(chan error, 4)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	reader := func(read func(i int) error) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 1 {
					ready.Done()
				}
				select {
				case <-done:
					return
				default:
				}
				if err := read(i); err != nil {
					report(err)
					if i == 0 {
						ready.Done()
					}
					return
				}
			}
		}()
	}
	reader(func(int) error {
		for _, e := range en.SupportedFUPs() {
			if !known[pathexpr.Canonical(e)] {
				return fmt.Errorf("SupportedFUPs lists %s, not in the workload", e)
			}
		}
		en.Stats()
		return nil
	})
	reader(func(i int) error {
		qi := i % len(exprs)
		res, err := en.QueryCtx(context.Background(), exprs[qi])
		if err != nil {
			return err
		}
		if !slices.Equal(res.Answer, truth[qi]) {
			return fmt.Errorf("%s: %d answers, ground truth %d", testQueries[qi], len(res.Answer), len(truth[qi]))
		}
		return nil
	})
	reader(func(int) error {
		if err := en.Snapshot().Validate(false); err != nil {
			return fmt.Errorf("Snapshot copy: %w", err)
		}
		return nil
	})

	ready.Wait() // every reader is past its first read before the writer starts
	for round := 0; round < 3; round++ {
		for _, e := range exprs {
			en.Support(e)
		}
		for _, e := range exprs[:3] {
			en.Retire(e)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if st := en.Stats(); st.Refinements == 0 || st.Retirements == 0 {
		t.Fatalf("writer did no work: %d refinements, %d retirements", st.Refinements, st.Retirements)
	}
}

func TestQueryCtx(t *testing.T) {
	g := datagen.XMarkGraph(0.005, 2)
	en := mustNew(t, g, Options{})
	e := mustParse("//open_auction/bidder/personref")

	res, err := en.QueryCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) == 0 {
		t.Fatal("no answer")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := en.QueryCtx(ctx, e); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := en.Stats(); st.Canceled == 0 {
		t.Error("canceled counter did not advance")
	}
}

func TestSupportSkipsAndNoops(t *testing.T) {
	g := datagen.XMarkGraph(0.005, 3)
	en := mustNew(t, g, Options{})
	e := mustParse("//open_auction/bidder")

	if !en.Support(e) {
		t.Fatal("first Support should publish")
	}
	gen := en.Generation()
	if en.Support(e) {
		t.Fatal("second Support of a precise FUP should be a no-op")
	}
	if en.Generation() != gen {
		t.Fatal("no-op Support changed the generation")
	}
	// Descendant-axis FUPs cannot be refined: no publish.
	if en.Support(mustParse("//person//watch")) {
		t.Fatal("descendant-axis Support should be a no-op")
	}
	st := en.Stats()
	if st.RefinesSkipped < 2 {
		t.Errorf("refines skipped = %d, want >= 2", st.RefinesSkipped)
	}
}

// TestMaxKCapsComponents verifies the resolution cap flows from Options
// through refinement.
func TestMaxKCapsComponents(t *testing.T) {
	g := datagen.XMarkGraph(0.005, 4)
	en := mustNew(t, g, Options{MStar: core.MStarOptions{MaxK: 2}})
	e := mustParse("//open_auction/bidder/personref/person/name")
	en.Support(e)
	if n := en.Snapshot().NumComponents(); n > 3 {
		t.Fatalf("components = %d, want <= 3 under MaxK=2", n)
	}
}

func TestStatsRendering(t *testing.T) {
	g := datagen.XMarkGraph(0.005, 6)
	en := mustNew(t, g, Options{})
	e := mustParse("//person/name")
	en.Query(e)
	en.Support(e)
	out := en.Stats().String()
	for _, want := range []string{"engine stats", "queries", "refinements", "latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats dump missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotImmutability: the frozen view published before a refinement
// must not change when the writer refines its index in place, and neither
// may a copy handed out by Snapshot.
func TestSnapshotImmutability(t *testing.T) {
	g := datagen.XMarkGraph(0.005, 7)
	en := mustNew(t, g, Options{})
	e := mustParse("//open_auction/bidder/personref")

	old := en.FrozenSnapshot()
	oldDOT := frozenDOT(t, old)
	copied := en.Snapshot()
	copiedNodes, copiedComps := copied.Finest().NumNodes(), copied.NumComponents()
	if !en.Support(e) {
		t.Fatal("Support should publish")
	}
	if !bytes.Equal(frozenDOT(t, old), oldDOT) {
		t.Fatal("published refinement mutated the old frozen view")
	}
	if copied.Finest().NumNodes() != copiedNodes || copied.NumComponents() != copiedComps {
		t.Fatal("published refinement mutated a copy Snapshot handed out")
	}
	if en.FrozenSnapshot() == old {
		t.Fatal("frozen view did not change on publish")
	}
	if err := en.FrozenSnapshot().CheckAgainst(en.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// frozenDOT renders every component of a frozen view to DOT.
func frozenDOT(t *testing.T, fz *core.FrozenMStar) []byte {
	t.Helper()
	var buf bytes.Buffer
	for c := 0; c < fz.NumComponents(); c++ {
		if err := fz.Component(c).WriteDOT(&buf, "s", 1<<20); err != nil {
			t.Fatalf("component %d: WriteDOT: %v", c, err)
		}
	}
	return buf.Bytes()
}

// New must refuse plainly invalid options with an error wrapping the
// sentinel, and accept the zero value (which means "all defaults").
func TestOptionsValidation(t *testing.T) {
	g := gtest.Random(1, 60, 5, 0.1)
	bad := []struct {
		name string
		opts Options
		// wantAdapt: the error must ALSO wrap adapt.ErrInvalidConfig — the
		// double-%w in Options.Validate keeps both sentinels reachable.
		wantAdapt bool
	}{
		{name: "negative parallelism", opts: Options{Parallelism: -1}},
		{name: "negative mstar parallelism", opts: Options{MStar: core.MStarOptions{Parallelism: -2}}},
		{name: "negative maxk", opts: Options{MStar: core.MStarOptions{MaxK: -1}}},
		{name: "unknown strategy", opts: Options{MStar: core.MStarOptions{Strategy: "zigzag"}}},
		{name: "static strategy reserved", opts: Options{MStar: core.MStarOptions{Strategy: "static"}}},
		{name: "bad autotune topk", opts: Options{AutoTune: &adapt.Config{TopK: -5}}, wantAdapt: true},
		{name: "bad autotune interval", opts: Options{AutoTune: &adapt.Config{Interval: -time.Second}}, wantAdapt: true},
	}
	for _, tc := range bad {
		en, err := New(g, tc.opts)
		if err == nil {
			en.Close()
			t.Errorf("%s: New accepted %+v", tc.name, tc.opts)
			continue
		}
		if !errors.Is(err, errInvalidOption) {
			t.Errorf("%s: error %v does not wrap errInvalidOption", tc.name, err)
		}
		if tc.wantAdapt && !errors.Is(err, adapt.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap adapt.ErrInvalidConfig", tc.name, err)
		}
	}
	en, err := New(g, Options{})
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	en.Close()
	// Negative Cooldown is documented as "disable cooldowns", not a bug.
	cfg := adapt.Config{Cooldown: -1}
	en, err = New(g, Options{AutoTune: &cfg})
	if err != nil {
		t.Fatalf("negative Cooldown (documented disable) rejected: %v", err)
	}
	en.Close()
}
