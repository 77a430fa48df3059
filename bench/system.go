package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"mrx/internal/adapt"
	"mrx/internal/core"
	"mrx/internal/datagen"
	"mrx/internal/engine"
	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/serve"
	"mrx/internal/shard"
)

// adaptConfig is the tuner configuration of drift_refine: cmd/mrserve
// -autotune's defaults, except for three values that make the tuner's
// decisions a function of the request stream alone. The sketch holds every
// distinct query (the default 64 entries would evict among the pool's ~140,
// and which entry goes depends on arrival order), and the hot and cold
// thresholds sit far on either side of the one or two hits per epoch that
// the pool share gives every query (the default cold threshold of 0 would
// retire a FUP only in the rare epoch that happens not to draw it). Epochs
// are stepped by the benchmark, counted in requests, not by a ticker.
func adaptConfig() adapt.Config {
	cfg := adapt.DefaultConfig()
	cfg.Interval = 0
	cfg.TopK = 256
	cfg.HotThreshold = 16
	cfg.ColdThreshold = 8
	return cfg
}

func genGraph(sp *spec) (*graph.Graph, error) {
	if sp.corpus {
		return datagen.CorpusGraph(sp.scale, datasetSeed, corpusDocs)
	}
	return datagen.XMarkGraph(sp.scale, datasetSeed), nil
}

// backend is the engine under test behind the one interface the serving
// layer consumes, plus the few extra calls the phases need.
type backend interface {
	query.ContextQuerier
	Support(e *pathexpr.Expr) bool
	Stats() engine.StatsSnapshot
	Close()
}

// newBackend constructs the engine exactly as cmd/mrserve would for this
// workload; persistDir is used by drift_refine only.
func newBackend(sp *spec, g *graph.Graph, persistDir string) (backend, error) {
	if sp.corpus {
		return engine.NewSharded(g, engine.ShardedOptions{Shards: shardsAsked, Parallelism: procs})
	}
	if sp.drift {
		tune := adaptConfig()
		return engine.New(g, engine.Options{
			Parallelism: procs,
			AutoTune:    &tune,
			Persist:     &engine.PersistOptions{Dir: persistDir},
		})
	}
	return engine.New(g, engine.Options{Parallelism: procs})
}

// shardsOf returns the shards of a sharded engine, nil for a monolithic one.
func shardsOf(be backend) []*shard.Shard {
	en, ok := be.(*engine.Sharded)
	if !ok {
		return nil
	}
	shards := make([]*shard.Shard, en.NumShards())
	for i := range shards {
		shards[i] = en.ShardState(i).Shard()
	}
	return shards
}

// route returns the indexes of the shards e can match on, as the sharded
// engine routes it; without shards everything goes to the one index.
func route(shards []*shard.Shard, e *pathexpr.Expr) []int {
	if shards == nil {
		return []int{0}
	}
	var out []int
	for i, sh := range shards {
		if sh.Covers(e) {
			out = append(out, i)
		}
	}
	return out
}

// part is one frozen index of the engine: the whole index of a monolithic
// engine, or one shard's.
type part struct {
	fz    *core.FrozenMStar // heap view, what the writer chains off
	serve *core.FrozenMStar // what queries read (the mapping under Persist)
	g     *graph.Graph      // the graph the index is bound to
}

func (s *system) parts() []part {
	switch en := s.be.(type) {
	case *engine.Engine:
		return []part{{en.FrozenSnapshot(), en.ServingSnapshot(), s.g}}
	case *engine.Sharded:
		parts := make([]part, en.NumShards())
		for i := range parts {
			st := en.ShardState(i)
			parts[i] = part{st.Snapshot().FZ, st.Snapshot().Serving(), st.Shard().Local()}
		}
		return parts
	}
	return nil
}

// system is the server under test, wired as cmd/mrserve wires it: an
// engine behind serve.New(…, serve.DefaultConfig()) behind
// Config.HTTPServer on a real loopback listener, all in this process.
type system struct {
	g    *graph.Graph
	be   backend // nil when serving a stub querier (tests)
	srv  *serve.Server
	hs   *http.Server
	base string // http://127.0.0.1:port
	done chan error
}

// buildTimes splits one timed setup into its layers.
type buildTimes struct {
	graph, engine, support, listen time.Duration
}

func (t buildTimes) total() time.Duration { return t.graph + t.engine + t.support + t.listen }

// buildSystem is the timed setup: dataset generation, engine construction,
// the initial Supports, and the listener answering its first probe.
func buildSystem(p *prepared, tmp string) (*system, buildTimes, error) {
	var bt buildTimes
	t0 := time.Now()
	g, err := genGraph(p.sp)
	if err != nil {
		return nil, bt, fmt.Errorf("dataset: %w", err)
	}
	bt.graph = time.Since(t0)

	t0 = time.Now()
	persist := ""
	if p.sp.drift {
		if persist, err = os.MkdirTemp(tmp, "persist-"); err != nil {
			return nil, bt, err
		}
	}
	be, err := newBackend(p.sp, g, persist)
	if err != nil {
		return nil, bt, fmt.Errorf("engine: %w", err)
	}
	bt.engine = time.Since(t0)

	t0 = time.Now()
	for _, id := range p.support {
		be.Support(p.exprs[id])
	}
	bt.support = time.Since(t0)

	t0 = time.Now()
	s, err := serveQuerier(be)
	if err != nil {
		be.Close()
		return nil, bt, err
	}
	s.g, s.be = g, be
	bt.listen = time.Since(t0)
	return s, bt, nil
}

// serveQuerier puts q behind the serving layer on a fresh loopback port and
// returns once /healthz answers.
func serveQuerier(q query.ContextQuerier) (*system, error) {
	cfg := serve.DefaultConfig()
	srv, err := serve.New(q, cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &system{
		srv:  srv,
		hs:   cfg.HTTPServer(srv.Handler()),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(s.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listener probe: %w", err)
	}
	return s, nil
}

// close shuts the listener down, waits for the serve goroutine, and stops
// the engine's tuner.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "bench: serve: %v\n", err)
	}
	if s.be != nil {
		s.be.Close()
	}
}

// newHTTPClient returns a client that owns exactly one keep-alive
// connection, as each closed-loop caller does.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}
