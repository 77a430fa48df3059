package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mrx/internal/engine"
	"mrx/internal/graph"
	"mrx/internal/mmapstore"
	"mrx/internal/pathexpr"
	"mrx/internal/shard"
	"mrx/internal/store"
)

// refinePhase Supports refine-phase candidates, costliest first, on the
// quiet server until sp.refines of them have changed the index, and
// returns the wall time of each index-changing call.
func refinePhase(p *prepared, be backend) []time.Duration {
	var times []time.Duration
	for _, id := range p.refine {
		if len(times) == p.sp.refines {
			break
		}
		t0 := time.Now()
		if be.Support(p.exprs[id]) {
			times = append(times, time.Since(t0))
		}
	}
	return times
}

// onDisk is a server's durable state: the data graph in store's format and
// one mmapstore snapshot per frozen part.
type onDisk struct {
	graphPath string
	snapPaths []string
	sharded   bool
	snapBytes int64
}

// writeGraph stores g at path in store's graph format.
func writeGraph(g *graph.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.WriteGraph(f, g); err != nil {
		f.Close()
		return fmt.Errorf("writing graph: %w", err)
	}
	return f.Close()
}

// persist writes the server's graph and current index to dir.
func persist(s *system, dir string) (*onDisk, error) {
	d := &onDisk{graphPath: filepath.Join(dir, "graph.bin")}
	if err := writeGraph(s.g, d.graphPath); err != nil {
		return nil, err
	}
	_, d.sharded = s.be.(*engine.Sharded)
	for i, pt := range s.parts() {
		path := filepath.Join(dir, fmt.Sprintf("part-%03d.mrx", i))
		if err := mmapstore.Publish(path, pt.fz, mmapstore.WriteOptions{}); err != nil {
			return nil, fmt.Errorf("publishing snapshot: %w", err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		d.snapPaths = append(d.snapPaths, path)
		d.snapBytes += st.Size()
	}
	return d, nil
}

// reopened is a read-only server state rebuilt from bytes on disk: one
// engine.Static per snapshot, plus the shards that map local answers back
// when the index was sharded.
type reopened struct {
	statics []*engine.Static
	shards  []*shard.Shard
	snaps   []*mmapstore.Snapshot
}

// reopen is the cold-start path: store.ReadGraph, then (re-partitioning a
// sharded corpus first) a fully verified mmapstore.Open and an
// engine.NewStatic per snapshot.
func (d *onDisk) reopen() (*reopened, error) {
	f, err := os.Open(d.graphPath)
	if err != nil {
		return nil, err
	}
	g, err := store.ReadGraph(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	r := &reopened{}
	graphs := []*graph.Graph{g}
	if d.sharded {
		r.shards, err = shard.Partition(g, shardsAsked)
		if err != nil {
			return nil, err
		}
		if len(r.shards) != len(d.snapPaths) {
			return nil, fmt.Errorf("graph partitions into %d shards, %d snapshots on disk", len(r.shards), len(d.snapPaths))
		}
		graphs = graphs[:0]
		for _, sh := range r.shards {
			graphs = append(graphs, sh.Local())
		}
	}
	for i, path := range d.snapPaths {
		snap, err := mmapstore.Open(path, graphs[i], mmapstore.Options{})
		if err != nil {
			r.close()
			return nil, err
		}
		r.snaps = append(r.snaps, snap)
		st, err := engine.NewStatic(snap.FrozenMStar(), procs)
		if err != nil {
			r.close()
			return nil, err
		}
		r.statics = append(r.statics, st)
	}
	return r, nil
}

// query answers e from the reopened state in global node ids.
func (r *reopened) query(e *pathexpr.Expr) ([]graph.NodeID, error) {
	if r.shards == nil {
		res, err := r.statics[0].QueryCtx(context.Background(), e)
		return res.Answer, err
	}
	var out []graph.NodeID
	for _, i := range route(r.shards, e) {
		res, err := r.statics[i].QueryCtx(context.Background(), e)
		if err != nil {
			return nil, err
		}
		for _, v := range res.Answer {
			out = append(out, r.shards[i].ToGlobal(v))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

func (r *reopened) close() {
	for _, s := range r.snaps {
		s.Close()
	}
}

// restartPhase measures bytes-on-disk → first correct answer reps times on
// the server's final index, then checks every distinct query against the
// last reopened state. It returns the restart times, the snapshot size,
// and the attempted and failed checks.
func restartPhase(p *prepared, s *system, dir string, reps int) (times []time.Duration, snapBytes, attempted, failed int64, err error) {
	d, err := persist(s, dir)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		r, err := d.reopen()
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("reopening: %w", err)
		}
		got, err := r.query(p.exprs[p.check])
		times = append(times, time.Since(t0))
		attempted++
		if err != nil || !sameIDs(got, p.want[p.check]) {
			failed++
		}
		if i == reps-1 {
			for id, e := range p.exprs {
				attempted++
				if got, err := r.query(e); err != nil || !sameIDs(got, p.want[id]) {
					failed++
				}
			}
		}
		r.close()
	}
	return times, d.snapBytes, attempted, failed, nil
}

// midmeanMS is the midmean of ds in milliseconds.
func midmeanMS(ds []time.Duration) float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = msOf(d)
	}
	return midmean(ms)
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
