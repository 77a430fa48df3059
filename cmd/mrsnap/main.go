// Command mrsnap builds, publishes and verifies memory-mapped M*(k)
// snapshot files — the disk-resident serving format of internal/mmapstore.
// It is the offline half of the disk-resident pipeline: build the index
// once (optionally refined for a known workload), publish it atomically,
// and let mrserve map it with -index-file for cold starts that map the
// index instead of rebuilding it.
//
// Usage:
//
//	mrsnap -dataset xmark -scale 0.1 -o snap.mrx -graph-out graph.bin
//	mrsnap -in doc.xml -refine '//a/b,//c/d' -o snap.mrx
//	mrsnap -graph graph.bin -verify snap.mrx      # full structural check
//
// The snapshot is bound to the exact data graph it was built over; keep the
// -graph-out file (compact binary graph format) next to it so serving and
// verification can rebind. Publication is atomic (write-temp + fsync +
// rename): a crash mid-write never leaves a torn file at -o, and a serving
// process mapping the previous generation is undisturbed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mrx"
)

func main() {
	in := flag.String("in", "", "build the graph from this XML file")
	graphIn := flag.String("graph", "", "load the data graph from this binary graph file (mrsnap -graph-out / mrx.WriteGraph)")
	dataset := flag.String("dataset", "xmark", "generated dataset: xmark, nasa or corpus (used when neither -in nor -graph is given)")
	scale := flag.Float64("scale", 0.1, "generated dataset scale (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "generated dataset seed")
	out := flag.String("o", "", "publish the snapshot to this path (atomic replace)")
	graphOut := flag.String("graph-out", "", "also write the data graph here in the compact binary format")
	refine := flag.String("refine", "", "comma-separated path expressions to refine (Support) before freezing")
	maxk := flag.Int("maxk", 0, "resolution cap for refinement (0 = unlimited)")
	compact := flag.Bool("compact", false, "delta-compress extent arenas (smaller file, linear arena decode at open)")
	pace := flag.Duration("pace", 0, "sleep this long before writing each section (widens the write window; testing aid)")
	verify := flag.String("verify", "", "fully verify this existing snapshot against the graph and exit (no writing)")
	flag.Parse()

	g, desc, err := loadGraph(*in, *graphIn, *dataset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("mrsnap: %s: %d nodes, %d edges, %d labels\n", desc, g.NumNodes(), g.NumEdges(), g.NumLabels())

	if *verify != "" {
		if *out != "" {
			fail(fmt.Errorf("-verify and -o are mutually exclusive"))
		}
		verifySnapshot(*verify, g)
		return
	}
	if *out == "" {
		fail(fmt.Errorf("no -o target (or -verify) given"))
	}

	ms := mrx.NewMStarOpts(g, mrx.MStarOptions{MaxK: *maxk})
	for _, s := range splitExprs(*refine) {
		e, err := mrx.ParsePath(s)
		if err != nil {
			fail(fmt.Errorf("-refine %q: %w", s, err))
		}
		if e.HasWildcard() || e.RequiredK() == mrx.UnboundedK {
			fail(fmt.Errorf("-refine %q: not a refinable FUP (wildcards and unbounded expressions cannot be supported)", s))
		}
		ms.Support(e)
	}
	fm := ms.Freeze()

	wo := mrx.SnapshotWriteOptions{CompactExtents: *compact}
	if *pace > 0 {
		d := *pace
		wo.OnSection = func(comp, kind int) { time.Sleep(d) }
	}
	start := time.Now()
	if err := mrx.PublishSnapshot(*out, fm, wo); err != nil {
		fail(err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fail(err)
	}
	fmt.Printf("mrsnap: published %s: %d components, %d bytes in %v\n",
		*out, fm.NumComponents(), st.Size(), time.Since(start).Round(time.Millisecond))

	if *graphOut != "" {
		f, err := os.Create(*graphOut)
		if err != nil {
			fail(err)
		}
		if err := mrx.WriteGraph(f, g); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("mrsnap: wrote graph %s\n", *graphOut)
	}
}

// verifySnapshot opens path in full-verification mode (checksums plus the
// deep structural walk) and reports what that took — the cost mrserve pays
// at every start unless it is given -trust-index.
func verifySnapshot(path string, g *mrx.Graph) {
	start := time.Now()
	snap, err := mrx.OpenSnapshot(path, g, mrx.SnapshotOpenOptions{})
	if err != nil {
		fail(err)
	}
	took := time.Since(start)
	defer snap.Close()
	fm := snap.FrozenMStar()
	fmt.Printf("mrsnap: %s: OK — %d components, %d sections checksummed, %d bytes, verified in %v\n",
		path, fm.NumComponents(), snap.Sections(), snap.SizeBytes(), took.Round(10*time.Microsecond))
	for i := 0; i < fm.NumComponents(); i++ {
		fmt.Printf("  I%-3d %8d index nodes\n", i, fm.Component(i).NumNodes())
	}
}

// splitExprs splits a comma-separated -refine list, dropping empty parts so
// trailing commas are harmless.
func splitExprs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// loadGraph builds the data graph from a binary graph file, an XML file, or
// a generated dataset, in that precedence order.
func loadGraph(in, graphIn, dataset string, scale float64, seed int64) (*mrx.Graph, string, error) {
	if graphIn != "" {
		f, err := os.Open(graphIn)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := mrx.ReadGraph(f)
		if err != nil {
			return nil, "", fmt.Errorf("loading %s: %w", graphIn, err)
		}
		return g, graphIn, nil
	}
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := mrx.LoadXML(f)
		if err != nil {
			return nil, "", fmt.Errorf("loading %s: %w", in, err)
		}
		return g, in, nil
	}
	desc := fmt.Sprintf("%s scale %g seed %d", dataset, scale, seed)
	switch dataset {
	case "xmark":
		return mrx.XMarkGraph(scale, seed), desc, nil
	case "nasa":
		return mrx.NASAGraph(scale, seed), desc, nil
	case "corpus":
		g, err := mrx.CorpusGraph(scale, seed, 12)
		if err != nil {
			return nil, "", fmt.Errorf("corpus: %w", err)
		}
		return g, desc, nil
	default:
		return nil, "", fmt.Errorf("unknown dataset %q (want xmark, nasa or corpus)", dataset)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "mrsnap: %v\n", err)
	os.Exit(1)
}
