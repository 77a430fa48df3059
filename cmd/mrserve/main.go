// Command mrserve serves path-expression queries over HTTP from the
// concurrent adaptive engine: the paper's operational loop (serve, extract
// FUPs, refine, repeat) behind a network front end with single-flight
// request coalescing and latency-aware load shedding.
//
// Usage:
//
//	mrserve -dataset xmark -scale 0.1 -autotune
//	mrserve -dataset corpus -shards 4    # scatter-gather over a sharded engine
//	mrserve -in doc.xml -addr 127.0.0.1:8080 -queue-depth 128 -shed-p99 50ms
//	mrserve -addr 127.0.0.1:0     # pick a free port; the chosen one is printed
//
// Disk-resident serving (see cmd/mrsnap and internal/mmapstore):
//
//	mrserve -graph g.bin -index-file snap.mrx              # checksummed + deep-verified, ~1ms per component per 100k nodes
//	mrserve -graph g.bin -index-file snap.mrx -trust-index # skip verification: O(index nodes) open of a file you published
//	mrserve -dataset xmark -snapshot-dir /var/mrx          # persist every generation
//
// Endpoints:
//
//	GET /query?q=//a/b               answer count, costs and precision (JSON)
//	GET /query?q=//a/b&answers=1     the same plus the answer's node ids
//	GET /stats                       serving + engine counters (JSON)
//	GET /healthz                     liveness probe
//
// Without answers=1 the engine counts the answer from the index extents
// and never copies an id (CountCtx), so that is the cheap request.
//
// Overload policy: at most -max-concurrent queries evaluate at once; up to
// -queue-depth more wait, each at most -queue-timeout; beyond that — or
// when the observed p99 exceeds -shed-p99 — requests are shed with
// 429 Too Many Requests and a Retry-After header. Concurrent requests for
// the same canonical expression coalesce into one evaluation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mrx"
	"mrx/internal/query"
	"mrx/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	in := flag.String("in", "", "serve this XML file instead of a generated dataset")
	graphIn := flag.String("graph", "", "load the data graph from this binary graph file (mrsnap -graph-out)")
	indexFile := flag.String("index-file", "", "serve read-only from this memory-mapped snapshot (cmd/mrsnap) instead of building an index")
	trustIndex := flag.Bool("trust-index", false, "skip checksums and the deep structural walk when opening -index-file: linear in the index nodes instead of in the file and data graph (mrsnap -verify prints what the walk costs, typically milliseconds); only for files you published yourself")
	snapshotDir := flag.String("snapshot-dir", "", "persist every published engine generation to this directory as memory-mapped snapshots and serve from the mapped views")
	snapshotCompact := flag.Bool("snapshot-compact", false, "delta-compress extent arenas in -snapshot-dir files")
	dataset := flag.String("dataset", "xmark", "generated dataset: xmark, nasa or corpus (multi-document)")
	scale := flag.Float64("scale", 0.1, "generated dataset scale (1.0 = paper size)")
	seed := flag.Int64("seed", 1, "generated dataset seed")
	parallel := flag.Int("parallel", 0, "validation workers per query (default GOMAXPROCS)")
	shards := flag.Int("shards", 0, "serve from a sharded engine with this many shards (0 = monolithic; clamped to the dataset's weak component count)")
	autotune := flag.Bool("autotune", false, "enable online workload tracking and adaptive refinement")
	tuneInterval := flag.Duration("tune-interval", time.Second, "tuning epoch length with -autotune")
	maxConcurrent := flag.Int("max-concurrent", serve.DefaultConfig().MaxConcurrent, "queries evaluating at once")
	queueDepth := flag.Int("queue-depth", serve.DefaultConfig().QueueDepth, "requests allowed to wait for a slot")
	queueTimeout := flag.Duration("queue-timeout", serve.DefaultConfig().QueueTimeout, "max wait for a slot before shedding")
	shedP99 := flag.Duration("shed-p99", 0, "shed queued arrivals when observed p99 exceeds this (0 disables)")
	window := flag.Duration("window", serve.DefaultConfig().Window, "latency observation window for -shed-p99")
	retryAfter := flag.Duration("retry-after", serve.DefaultConfig().RetryAfter, "Retry-After hint on 429 responses")
	readHeaderTimeout := flag.Duration("read-header-timeout", serve.DefaultConfig().ReadHeaderTimeout, "max time a client may take to send its request headers (slow-loris bound)")
	readTimeout := flag.Duration("read-timeout", serve.DefaultConfig().ReadTimeout, "max time to read one whole request")
	writeTimeout := flag.Duration("write-timeout", serve.DefaultConfig().WriteTimeout, "max time to write one whole response (half-open reader bound)")
	idleTimeout := flag.Duration("idle-timeout", serve.DefaultConfig().IdleTimeout, "max keep-alive idle time before a connection is reaped")
	flag.Parse()

	cfg := serve.Config{
		MaxConcurrent:     *maxConcurrent,
		QueueDepth:        *queueDepth,
		QueueTimeout:      *queueTimeout,
		ShedP99:           *shedP99,
		Window:            *window,
		RetryAfter:        *retryAfter,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// Validate the serving limits before paying for dataset and engine
	// construction; serve.New re-checks below.
	if err := cfg.Validate(); err != nil {
		fail(err)
	}

	g, desc, err := loadGraph(*in, *graphIn, *dataset, *scale, *seed)
	if err != nil {
		fail(err)
	}
	fmt.Printf("mrserve: %s: %d nodes, %d edges (%d references)\n",
		desc, g.NumNodes(), g.NumEdges(), g.NumRefEdges())

	var tune *mrx.AutoTuneConfig
	if *autotune {
		cfg := mrx.DefaultAutoTuneConfig()
		cfg.Interval = *tuneInterval
		tune = &cfg
	}
	var persist *mrx.EnginePersistOptions
	if *snapshotDir != "" {
		persist = &mrx.EnginePersistOptions{Dir: *snapshotDir, Compact: *snapshotCompact}
	}
	// All engines serve through query.ContextQuerier; the serving layer
	// cannot tell them apart. -index-file selects the read-only
	// disk-resident path, -shards the scatter-gather path.
	var (
		backend    query.ContextQuerier
		extraStats func() any
		closeEng   func()
	)
	if *indexFile != "" {
		if *autotune || *shards > 0 || persist != nil {
			fail(fmt.Errorf("-index-file serves a fixed snapshot; it cannot combine with -autotune, -shards or -snapshot-dir"))
		}
		start := time.Now()
		snap, err := mrx.OpenSnapshot(*indexFile, g, mrx.SnapshotOpenOptions{Trusted: *trustIndex})
		if err != nil {
			fail(err)
		}
		mode := "verified"
		if *trustIndex {
			mode = "trusted"
		}
		fmt.Printf("mrserve: mapped %s: %d components, %d bytes, %s open in %v\n",
			*indexFile, snap.FrozenMStar().NumComponents(), snap.SizeBytes(), mode,
			time.Since(start).Round(time.Microsecond))
		en, err := mrx.NewStaticEngine(snap.FrozenMStar(), *parallel)
		if err != nil {
			fail(err)
		}
		backend, extraStats, closeEng = en, func() any { return en.Stats() }, func() { snap.Close() }
	} else if *shards > 0 {
		en, err := mrx.NewShardedEngine(g, mrx.ShardedEngineOptions{
			Shards: *shards, Parallelism: *parallel, AutoTune: tune, Persist: persist,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("mrserve: sharded engine: %d shards\n", en.NumShards())
		backend, extraStats, closeEng = en, func() any { return en.Stats() }, en.Close
	} else {
		en, err := mrx.NewEngine(g, mrx.EngineOptions{Parallelism: *parallel, AutoTune: tune, Persist: persist})
		if err != nil {
			fail(err)
		}
		backend, extraStats, closeEng = en, func() any { return en.Stats() }, en.Close
	}
	if persist != nil {
		fmt.Printf("mrserve: persisting snapshots to %s\n", *snapshotDir)
	}
	defer closeEng()

	srv, err := serve.New(backend, cfg)
	if err != nil {
		fail(err)
	}
	srv.ExtraStats = extraStats

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	// The actual address, so -addr with port 0 is scriptable.
	fmt.Printf("mrserve: listening on http://%s\n", ln.Addr())

	// HTTPServer applies the configured network timeouts, so a slow-loris
	// header trickle or a client that stops reading its response is cut off
	// instead of pinning a connection goroutine.
	hs := cfg.HTTPServer(srv.Handler())
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "mrserve: %v: shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := hs.Shutdown(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mrserve: shutdown: %v\n", err)
		}
	}

	c := srv.Counters()
	fmt.Printf("mrserve: served %d (%d coalesced into %d evaluations), shed %d, canceled %d, errored %d\n",
		c.Served, c.Coalesced, c.Flights, c.Shed, c.Canceled, c.Errored)
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
	fmt.Fprintf(os.Stderr, "mrserve: %v\n", err)
	os.Exit(1)
}
