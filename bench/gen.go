package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
	"mrx/internal/workload"
)

// sequence is the request stream of one workload: request i asks for query
// at(i). The stream is a pure function of the seed and is made of rounds.
// Every round holds the same multiset of queries — segment by segment — in
// a seeded order, so any whole number of rounds costs the same whatever
// the seed; only the interleaving (and with it cache and coalescing luck)
// differs between seeds.
type sequence struct {
	round int
	perms [][]uint16
}

// seqPerms is how many differently shuffled rounds a stream cycles through.
const seqPerms = 16

// newSequence builds the stream whose rounds are the concatenation of the
// given segments; segments[s][q] is how often query q occurs in segment s.
func newSequence(segments [][]int, seed int64) *sequence {
	r := rand.New(rand.NewSource(seed))
	s := &sequence{perms: make([][]uint16, seqPerms)}
	for p := range s.perms {
		var perm []uint16
		for _, counts := range segments {
			start := len(perm)
			for q, c := range counts {
				for ; c > 0; c-- {
					perm = append(perm, uint16(q))
				}
			}
			seg := perm[start:]
			r.Shuffle(len(seg), func(a, b int) { seg[a], seg[b] = seg[b], seg[a] })
		}
		s.perms[p] = perm
	}
	s.round = len(s.perms[0])
	return s
}

func (s *sequence) at(i int64) int {
	r := int64(s.round)
	return int(s.perms[(i/r)%seqPerms][i%r])
}

// prepared is everything a run derives from the spec before the system
// under test exists: the distinct queries, their expected answers, which of
// them setup and the refine phase Support, and the request stream.
type prepared struct {
	sp      *spec
	nodes   int
	queries []string // distinct expressions; a query id indexes all slices
	exprs   []*pathexpr.Expr
	want    [][]graph.NodeID // exact answers from query.DataIndex.Eval
	support []int            // Supported in setup, in order
	refine  []int            // refine-phase candidates, costliest first
	check   int              // the restart phase's one checked query
	seq     *sequence
}

// pool collects the distinct queries of a workload while it is prepared,
// with what ranking them needs: how often the generator drew each, and its
// cost and precision on an unrefined engine — the paper's metric at I0,
// which is exact, not a timing.
type pool struct {
	p       *prepared
	di      *query.DataIndex
	base    backend
	ids     map[string]int
	mult    []int
	cost    []int
	precise []bool
}

// add records one draw of e and returns its query id.
func (pl *pool) add(e *pathexpr.Expr) (int, error) {
	key := e.String()
	if id, ok := pl.ids[key]; ok {
		pl.mult[id]++
		return id, nil
	}
	res, err := pl.base.QueryCtx(context.Background(), e)
	if err != nil {
		return 0, fmt.Errorf("ranking %s: %w", key, err)
	}
	id := len(pl.p.queries)
	pl.ids[key] = id
	pl.p.queries = append(pl.p.queries, key)
	pl.p.exprs = append(pl.p.exprs, e)
	pl.p.want = append(pl.p.want, pl.di.Eval(e))
	pl.mult = append(pl.mult, 1)
	pl.cost = append(pl.cost, res.Cost.Total())
	pl.precise = append(pl.precise, res.Precise)
	return id, nil
}

// byCost orders query ids costliest first, ties by text.
func (pl *pool) byCost(ids []int) {
	sort.Slice(ids, func(a, b int) bool {
		if pl.cost[ids[a]] != pl.cost[ids[b]] {
			return pl.cost[ids[a]] > pl.cost[ids[b]]
		}
		return pl.p.queries[ids[a]] < pl.p.queries[ids[b]]
	})
}

// refinable lists the queries a refinement can help — non-empty answer,
// imprecise at I0 — costliest first.
func (pl *pool) refinable() []int {
	var ids []int
	for id := range pl.p.queries {
		if len(pl.p.want[id]) > 0 && !pl.precise[id] {
			ids = append(ids, id)
		}
	}
	pl.byCost(ids)
	return ids
}

// prepare derives the workload from its spec. It builds the dataset and a
// scratch engine at I0 to rank the pool; both are dropped before the timed
// setup starts.
func prepare(sp *spec, seed int64) (*prepared, error) {
	g, err := genGraph(sp)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	base, err := newBackend(&spec{corpus: sp.corpus}, g, "")
	if err != nil {
		return nil, fmt.Errorf("scratch engine: %w", err)
	}
	defer base.Close()
	p := &prepared{sp: sp, nodes: g.NumNodes()}
	pl := &pool{p: p, di: query.NewDataIndex(g), base: base, ids: map[string]int{}}
	for _, e := range workload.Generate(g, workload.Options{
		NumQueries: sp.poolSize, MaxPathLen: 9, MaxQueryLen: 9, Seed: datasetSeed,
	}) {
		if _, err := pl.add(e); err != nil {
			return nil, err
		}
	}

	var segments [][]int
	switch {
	case sp.drift:
		segments = pl.driftSegments()
	case sp.corpus:
		segments, err = pl.shardedSegments(g)
	case sp.hot > 0:
		segments = pl.hotSegments()
	default:
		segments, err = pl.coldSegments()
	}
	if err != nil {
		return nil, err
	}
	ranked := pl.refinable()
	if len(ranked) == 0 {
		return nil, fmt.Errorf("%s: no refinable query in the pool", sp.name)
	}
	for _, id := range ranked {
		if !slices.Contains(p.support, id) {
			p.refine = append(p.refine, id)
		}
	}
	p.check = ranked[0]
	p.seq = newSequence(segments, seed)
	return p, nil
}

// hotSegments is hot_fup: the sp.hot costliest refinable queries are
// Supported in setup and are the only ones requested, Zipf(1.0) by rank.
func (pl *pool) hotSegments() [][]int {
	ranked := pl.refinable()
	hot := ranked[:min(pl.p.sp.hot, len(ranked))]
	pl.p.support = hot
	counts := make([]int, len(pl.p.queries))
	for i, c := range zipfCounts(len(hot), hotRound) {
		counts[hot[i]] = c
	}
	return [][]int{counts}
}

// coldSegments is cold_validate: the pool as drawn (duplicates keep their
// weight) plus 10 % label sequences that match nothing, made by reversing
// pool queries.
func (pl *pool) coldSegments() ([][]int, error) {
	drawn := len(pl.p.queries)
	for id := 0; id < drawn && len(pl.p.queries)-drawn < pl.p.sp.poolSize/10; id++ {
		labels := pl.p.exprs[id].Labels()
		if len(labels) < 2 {
			continue
		}
		rev := make([]string, len(labels))
		for i, l := range labels {
			rev[len(labels)-1-i] = l
		}
		e := pathexpr.FromLabels(rev)
		if _, dup := pl.ids[e.String()]; dup || len(pl.di.Eval(e)) > 0 {
			continue
		}
		if _, err := pl.add(e); err != nil {
			return nil, err
		}
	}
	return [][]int{pl.mult}, nil
}

// driftSegments is drift_refine: the sp.hot costliest refinable queries
// are dealt round-robin into driftRotations hot sets of similar cost. A
// round has one segment per tuner epoch, driftEpochs of them per rotation;
// every epoch of rotation j draws driftHotShare of its requests from hot
// set j and the rest evenly from the whole pool. Within a hot set the
// counts fall linearly with rank (15:13:…:1 for eight queries), far enough
// apart that neither coalescing nor the request in flight at an epoch
// boundary can reorder the tuner's hottest-first promotions.
func (pl *pool) driftSegments() [][]int {
	ranked := pl.refinable()
	hot := ranked[:min(pl.p.sp.hot, len(ranked))]
	epoch := pl.p.sp.epoch
	hotTotal := int(driftHotShare * float64(epoch))
	var segments [][]int
	for j := 0; j < driftRotations; j++ {
		var set []int
		for k := j; k < len(hot); k += driftRotations {
			set = append(set, hot[k])
		}
		counts := spread(epoch-hotTotal, len(pl.p.queries))
		n := len(set)
		left := hotTotal
		for r, id := range set {
			c := hotTotal * (2*(n-r) - 1) / (n * n)
			counts[id] += c
			left -= c
		}
		counts[set[0]] += left
		for e := 0; e < driftEpochs; e++ {
			segments = append(segments, counts)
		}
	}
	return segments
}

// shardedSegments is sharded_scatter: as many all-shard queries as the
// corpus offers and the same number of single-shard ones, each requested
// equally often, every other one of each kind Supported in setup.
func (pl *pool) shardedSegments(g *graph.Graph) ([][]int, error) {
	shards := shardsOf(pl.base)
	if len(shards) < 2 {
		return nil, fmt.Errorf("%s: corpus did not partition into several shards", pl.p.sp.name)
	}
	// The pool generator walks label paths of single documents, so its
	// queries live in one document family's shard. All-shard queries are
	// made from the labels every shard has: //a and //a/b.
	var shared []string
	for l := 0; l < g.NumLabels(); l++ {
		name := g.LabelName(graph.LabelID(l))
		if len(route(shards, pathexpr.FromLabels([]string{name}))) == len(shards) {
			shared = append(shared, name)
		}
	}
	sort.Strings(shared)
	for _, a := range shared {
		if _, err := pl.add(pathexpr.FromLabels([]string{a})); err != nil {
			return nil, err
		}
		for _, b := range shared {
			e := pathexpr.FromLabels([]string{a, b})
			if len(pl.di.Eval(e)) == 0 {
				continue
			}
			if _, err := pl.add(e); err != nil {
				return nil, err
			}
		}
	}
	var single, all []int
	for id, e := range pl.p.exprs {
		if len(pl.p.want[id]) == 0 {
			continue
		}
		switch len(route(shards, e)) {
		case 1:
			single = append(single, id)
		case len(shards):
			all = append(all, id)
		}
	}
	pl.byCost(single)
	pl.byCost(all)
	n := min(len(single), len(all), pl.p.sp.poolSize/2)
	if n == 0 {
		return nil, fmt.Errorf("%s: %d single-shard and %d all-shard queries, need both", pl.p.sp.name, len(single), len(all))
	}
	counts := make([]int, len(pl.p.queries))
	for _, kind := range [][]int{single[:n], all[:n]} {
		for i, id := range kind {
			counts[id] = 1
			if i%2 == 0 {
				pl.p.support = append(pl.p.support, id)
			}
		}
	}
	return [][]int{counts}, nil
}

// zipfCounts splits total into n counts proportional to 1/rank (Zipf with
// exponent 1.0), by largest remainder so they sum to total exactly.
func zipfCounts(n, total int) []int {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / float64(i+1)
		sum += w[i]
	}
	counts := make([]int, n)
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, n)
	left := total
	for i := range w {
		exact := w[i] / sum * float64(total)
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; k < left; k++ {
		counts[rems[k].i]++
	}
	return counts
}

// spread splits total into n counts that differ by at most one.
func spread(total, n int) []int {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = total / n
		if i < total%n {
			counts[i]++
		}
	}
	return counts
}

// warmup is the untimed phase before measuring. A quiet workload replays
// the first sp.warmRounds rounds. drift_refine replays the last rotation of
// a round, which leaves the tuner where every cycle leaves it — the last
// hot set supported, the others not — so the first measured cycle is like
// the ones after it.
func (p *prepared) warmup() phaseOpts {
	round := int64(p.seq.round)
	if p.sp.drift {
		rotation := round / driftRotations
		return phaseOpts{from: round - rotation, count: rotation}
	}
	return phaseOpts{count: int64(p.sp.warmRounds) * round}
}

// hash fingerprints the first n requests of the stream by their text.
func (p *prepared) hash(n int) string {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		h.Write([]byte(p.queries[p.seq.at(int64(i))]))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// describe summarises the prepared workload for the human-readable log.
func (p *prepared) describe() string {
	return fmt.Sprintf("%d nodes, %d distinct queries, rounds of %d, %d supported in setup, stream %s",
		p.nodes, len(p.queries), p.seq.round, len(p.support), p.hash(p.seq.round))
}
