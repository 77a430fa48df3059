package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mrx/internal/core"
	"mrx/internal/engine"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/shard"
	"mrx/internal/store"
)

func msOf(d time.Duration) float64 { return d.Seconds() * 1e3 }

// spans holds one span per request at one layer boundary, in columns:
// request i (the shared request id) ran from Start[i] to End[i], in
// nanoseconds since the traced run began. Parent names the boundary whose
// span of the same request encloses this one.
type spans struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  []int64 `json:"start_ns"`
	End    []int64 `json:"end_ns"`

	allocs float64 // mallocs per request over the replay
}

func (s *spans) meanUS() float64 {
	var sum int64
	for i := range s.Start {
		sum += s.End[i] - s.Start[i]
	}
	return float64(sum) / float64(len(s.Start)) / 1e3
}

// replay runs fn once per request of the prefix, single-threaded, and
// records a span around each call. Spans are kept in memory; the caller
// writes them out when the run ends.
func replay(name, parent string, epoch time.Time, ids []int, fn func(i, id int)) *spans {
	s := &spans{Name: name, Parent: parent, Start: make([]int64, len(ids)), End: make([]int64, len(ids))}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		s.Start[i] = int64(time.Since(epoch))
		fn(i, id)
		s.End[i] = int64(time.Since(epoch))
	}
	runtime.ReadMemStats(&after)
	s.allocs = float64(after.Mallocs-before.Mallocs) / float64(len(ids))
	return s
}

// memWriter is the in-memory http.ResponseWriter the handler boundary
// writes into.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(status int)      { w.status = status }

// evalViews evaluates e on each routed view in turn, with the worker budget
// the engine would give each, and returns the summed cost, whether every
// view answered precisely, and the time spent inside QueryOpts.
func evalViews(views []*core.FrozenMStar, route []int, e *pathexpr.Expr) (cost query.Cost, precise bool, busy time.Duration) {
	precise = true
	opt := query.ValidateOpts{Workers: max(1, procs/max(1, len(route)))}
	for _, i := range route {
		t0 := time.Now()
		res, _ := views[i].QueryOpts(e, opt)
		busy += time.Since(t0)
		cost.Add(res.Cost)
		precise = precise && res.Precise
	}
	return cost, precise, busy
}

// runTraced is the traced run: a short loaded phase for the counters that
// need concurrency, then the request prefix replayed single-threaded at
// each layer boundary in turn, then the refine and storage layers on their
// own. It reports every per-layer metric and writes the spans to
// <out>/trace-<workload>.json.
func runTraced(sp *spec, cfg runConfig) (result, error) {
	p, err := prepare(sp, cfg.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "%s (traced): %s\n", sp.name, p.describe())
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	tl := &tally{log: cfg.log}
	vals := map[string]float64{}
	for _, m := range perLayer {
		vals[m.name] = 0 // a layer that is not on this workload's path reports 0
	}

	sys, bt, err := buildSystem(p, tmp)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	vals["datagen.graph_s"] = bt.graph.Seconds()
	vals["engine.build_s"] = bt.engine.Seconds()
	vals["engine.support_initial_s"] = bt.support.Seconds()
	shards := shardsOf(sys.be)
	if shards != nil {
		t0 := time.Now()
		if _, err := shard.Partition(sys.g, shardsAsked); err != nil {
			return result{}, err
		}
		vals["shard.partition_ms"] = msOf(time.Since(t0))
	}

	// Loaded phase: the counters that only move under concurrency.
	c0, e0 := sys.srv.Counters(), sys.be.Stats()
	lp := sys.runPhase(p, phaseOpts{dur: time.Duration(cfg.seconds / 3 * float64(time.Second))})
	c1, e1 := sys.srv.Counters(), sys.be.Stats()
	tl.add("loaded", lp.attempted, lp.failed)
	vals["http.loaded_p99_us"] = lp.overWindows(func(w *window) float64 { return w.lat.quantile(0.99) / 1e3 })
	if served := float64(c1.Served - c0.Served); served > 0 {
		vals["serve.coalesced_ratio"] = float64(c1.Coalesced-c0.Coalesced) / served
		vals["serve.shed_ratio"] = float64(c1.Shed-c0.Shed) / float64(c1.Received-c0.Received)
		vals["engine.cost_per_served"] = float64(e1.IndexNodesVisited-e0.IndexNodesVisited+e1.DataNodesValidated-e0.DataNodesValidated) / served
	}
	if shards != nil && e1.Queries > e0.Queries {
		var routed uint64
		for i := range e1.Shards {
			routed += e1.Shards[i].Queries - e0.Shards[i].Queries
		}
		vals["shard.fanout"] = float64(routed) / float64(e1.Queries-e0.Queries)
	}
	var stepTime, changedTime time.Duration
	changed := 0
	for _, st := range lp.steps {
		stepTime += st.dur
		if st.changed > 0 {
			changedTime += st.dur
			changed += st.changed
		}
	}
	if len(lp.steps) > 0 {
		vals["adapt.step_ms"] = msOf(stepTime) / float64(len(lp.steps))
	}
	if at := e1.AutoTune; at != nil {
		vals["adapt.promotions"] = float64(at.Promotions)
		vals["adapt.retires"] = float64(at.Retires)
		vals["adapt.evictions"] = float64(sys.be.(*engine.Engine).Tuner().Tracker().Evictions())
	}

	// Boundary replays, innermost first. Each boundary replays the same
	// prefix of the request stream on one goroutine.
	ids := make([]int, sp.tracePrefix)
	for i := range ids {
		ids[i] = p.seq.at(int64(i))
	}
	epoch := time.Now()
	parse := replay("pathexpr.Parse+Canonical", "serve.Handler", epoch, ids, func(_, id int) {
		if e, err := pathexpr.Parse(p.queries[id]); err == nil {
			_ = pathexpr.Canonical(e)
		}
	})
	// The engine is quiet during the replays, so the views fetched here stay
	// the ones QueryCtx reads. Routing is the shard layer's work and is done
	// ahead; the span keeps only the time inside QueryOpts.
	var serving []*core.FrozenMStar
	for _, pt := range sys.parts() {
		serving = append(serving, pt.serve)
	}
	routes := make([][]int, len(p.exprs))
	for id, e := range p.exprs {
		routes[id] = route(shards, e)
	}
	var cost query.Cost
	preciseN := 0
	busy := make([]int64, len(ids))
	eval := replay("FrozenMStar.QueryOpts", "engine.QueryCtx", epoch, ids, func(i, id int) {
		c, precise, b := evalViews(serving, routes[id], p.exprs[id])
		busy[i] = int64(b)
		cost.Add(c)
		if precise {
			preciseN++
		}
	})
	for i, b := range busy {
		eval.End[i] = eval.Start[i] + b
	}
	wrong := int64(0)
	qctx := replay("engine.QueryCtx", "serve.Handler", epoch, ids, func(_, id int) {
		res, err := sys.be.QueryCtx(context.Background(), p.exprs[id])
		if err != nil || len(res.Answer) != len(p.want[id]) {
			wrong++
		}
	})
	handler := sys.srv.Handler()
	reqs := make([]*http.Request, len(p.queries))
	for id, q := range p.queries {
		if reqs[id], err = http.NewRequest(http.MethodGet, queryURL(sys.base, q, false), nil); err != nil {
			return result{}, err
		}
	}
	w := &memWriter{header: http.Header{}}
	var respBytes int64
	serveSpans := replay("serve.Handler", "http loopback", epoch, ids, func(_, id int) {
		w.body.Reset()
		w.status = 0
		handler.ServeHTTP(w, reqs[id])
		respBytes += int64(w.body.Len())
		if rep, ok := parseReply(w.body.Bytes()); w.status != http.StatusOK || !ok || rep.answers != len(p.want[id]) {
			wrong++
		}
	})
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	var body bytes.Buffer
	loop := func(_, id int) {
		if rep, ok := do(cl, reqs[id], &body); !ok || rep.answers != len(p.want[id]) {
			wrong++
		}
	}
	loop(0, ids[0]) // dial outside the spans
	loopback := replay("http loopback", "", epoch, ids, loop)
	t0 := time.Now()
	for i, id := range ids {
		loop(i, id)
	}
	untracedUS := float64(time.Since(t0)) / float64(len(ids)) / 1e3
	tl.add("replays", int64(4*len(ids)+1), wrong)

	n := float64(len(ids))
	vals["pathexpr.parse_us"] = parse.meanUS()
	vals["pathexpr.allocs"] = parse.allocs
	vals["query.eval_us"] = eval.meanUS()
	vals["query.index_nodes"] = float64(cost.IndexNodes) / n
	vals["query.data_nodes"] = float64(cost.DataNodes) / n
	vals["query.precise_ratio"] = float64(preciseN) / n
	vals["query.allocs"] = eval.allocs
	engineLayer := "engine"
	if shards != nil {
		engineLayer = "shard" // route + scatter + merge is the layer above the frozen eval
	}
	vals[engineLayer+".self_us"] = qctx.meanUS() - eval.meanUS()
	vals["engine.allocs"] = qctx.allocs - eval.allocs
	vals["serve.self_us"] = serveSpans.meanUS() - qctx.meanUS() - parse.meanUS()
	vals["serve.allocs"] = serveSpans.allocs - qctx.allocs - parse.allocs
	vals["serve.response_bytes"] = float64(respBytes) / n
	vals["http.self_us"] = loopback.meanUS() - serveSpans.meanUS()
	vals["http.allocs"] = loopback.allocs - serveSpans.allocs
	vals["trace.overhead_ratio"] = loopback.meanUS() / untracedUS
	sum := vals["pathexpr.parse_us"] + vals["query.eval_us"] + vals[engineLayer+".self_us"] + vals["serve.self_us"] + vals["http.self_us"]
	fmt.Fprintf(cfg.log, "  layer self times sum to %.2f us; untraced single-client loopback %.2f us (%.1f%% apart); eval share %.1f%%\n",
		sum, untracedUS, 100*(sum-untracedUS)/untracedUS, 100*vals["query.eval_us"]/sum)

	// Refinement on the quiet server (the drifting one refined beside the
	// readers, in the loaded phase).
	if sp.drift {
		if changed > 0 {
			vals["engine.refine_ms"] = msOf(changedTime) / float64(changed)
		}
	} else {
		vals["engine.refine_ms"] = midmeanMS(refinePhase(p, sys.be))
	}
	e2 := sys.be.Stats()
	vals["engine.publishes"] = float64(e2.SnapshotPublishes)
	if total := e2.Refinements + e2.RefinesSkipped; total > 0 {
		vals["engine.refine_noop_ratio"] = float64(e2.RefinesSkipped) / float64(total)
	}
	var freezes uint64
	var freezeTime time.Duration
	for _, sh := range e2.Shards {
		freezes += sh.Freezes
		freezeTime += sh.TotalFreeze
	}
	if freezes > 0 {
		vals["shard.freeze_ms"] = msOf(freezeTime) / float64(freezes)
	}

	if err := storageLayers(p, sys, tmp, ids, routes, cfg, vals); err != nil {
		return result{}, err
	}

	trace := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Requests int      `json:"requests"`
		Spans    []*spans `json:"spans"`
	}{sp.name, cfg.seed, len(ids), []*spans{loopback, serveSpans, qctx, eval, parse}}
	data, err := json.Marshal(trace)
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "trace-"+sp.name+".json"), data, 0o644); err != nil {
		return result{}, err
	}
	return tl.result(perLayer, vals)
}

// storageLayers times the store and mmapstore layers on the server's final
// index: graph write and read, snapshot encode, atomic publish, verified
// and trusted open, and frozen evaluation over the mapping against the
// heap.
func storageLayers(p *prepared, sys *system, dir string, ids []int, routes [][]int, cfg runConfig, vals map[string]float64) error {
	median := func(reps int, fn func() error) (time.Duration, error) {
		var ds []time.Duration
		for i := 0; i < cfg.reps(reps); i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			ds = append(ds, time.Since(t0))
		}
		return medianDur(ds), nil
	}

	d, err := persist(sys, dir)
	if err != nil {
		return err
	}
	graphWrite, err := median(3, func() error { return writeGraph(sys.g, d.graphPath) })
	if err != nil {
		return err
	}
	parts := sys.parts()
	encode, err := median(3, func() error {
		for _, pt := range parts {
			var buf bytes.Buffer
			if err := mmapstore.Write(&buf, pt.fz, mmapstore.WriteOptions{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	publish, err := median(3, func() error {
		for i, pt := range parts {
			if err := mmapstore.Publish(d.snapPaths[i], pt.fz, mmapstore.WriteOptions{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	vals["store.graph_write_ms"] = msOf(graphWrite)
	vals["mmapstore.write_ms"] = msOf(encode)
	vals["mmapstore.publish_ms"] = msOf(publish)
	if st, err := os.Stat(d.graphPath); err == nil {
		vals["store.graph_bytes_per_node"] = float64(st.Size()) / float64(p.nodes)
	}
	read, err := median(5, func() error {
		f, err := os.Open(d.graphPath)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = store.ReadGraph(f)
		return err
	})
	if err != nil {
		return err
	}
	vals["store.graph_read_ms"] = msOf(read)

	open := func(o mmapstore.Options) ([]*mmapstore.Snapshot, error) {
		var snaps []*mmapstore.Snapshot
		for i, pt := range parts {
			s, err := mmapstore.Open(d.snapPaths[i], pt.g, o)
			if err != nil {
				return nil, err
			}
			snaps = append(snaps, s)
		}
		return snaps, nil
	}
	closeAll := func(snaps []*mmapstore.Snapshot) {
		for _, s := range snaps {
			s.Close()
		}
	}
	verified, err := median(3, func() error {
		snaps, err := open(mmapstore.Options{})
		closeAll(snaps)
		return err
	})
	if err != nil {
		return err
	}
	vals["mmapstore.open_verified_ms"] = msOf(verified)
	trusted, err := median(trustedReps, func() error {
		snaps, err := open(mmapstore.Options{Trusted: true})
		closeAll(snaps)
		return err
	})
	if err != nil {
		return err
	}
	vals["mmapstore.open_trusted_us"] = trusted.Seconds() * 1e6

	// Mapped against heap evaluation of the same requests.
	snaps, err := open(mmapstore.Options{Trusted: true})
	if err != nil {
		return err
	}
	defer closeAll(snaps)
	heap := make([]*core.FrozenMStar, len(parts))
	mapped := make([]*core.FrozenMStar, len(parts))
	for i, pt := range parts {
		heap[i] = pt.fz
		mapped[i] = snaps[i].FrozenMStar()
	}
	sample := ids[:min(len(ids), 2000)]
	var heapBusy, mappedBusy time.Duration
	for _, id := range sample {
		_, _, b := evalViews(heap, routes[id], p.exprs[id])
		heapBusy += b
		_, _, b = evalViews(mapped, routes[id], p.exprs[id])
		mappedBusy += b
	}
	if heapBusy > 0 {
		vals["mmapstore.mapped_eval_ratio"] = float64(mappedBusy) / float64(heapBusy)
	}
	return nil
}
