package main

// spec is one workload's frozen definition. Everything that decides what
// the system under test is asked to do lives here; -seed only reorders the
// request sequence (see gen.go), so metrics that depend on the multiset of
// requests repeat exactly across seeds.
type spec struct {
	name string

	// corpus selects datagen.CorpusGraph(scale, datasetSeed, 12) served by
	// engine.NewSharded{Shards: 4}; otherwise datagen.XMarkGraph(scale,
	// datasetSeed) served by the monolithic engine.New.
	corpus bool
	scale  float64
	// drift runs the engine with AutoTune{Interval: 0} and Persist, rotates
	// the hot set, and steps the tuner beside the readers.
	drift bool

	poolSize int // workload.Generate NumQueries
	// hot is the number of costliest non-empty pool queries that form the
	// hot set: Supported in setup and the only queries requested on
	// hot_fup; split into rotations of driftHot on drift_refine.
	hot int

	// epoch is the number of completed requests per Tuner.Step (drift only).
	epoch int

	warmRounds  int // rounds replayed untimed before the measure phase (quiet workloads)
	tracePrefix int // requests replayed per boundary in the traced run
	refines     int // index-changing Supports timed in the refine phase
}

const (
	datasetSeed = 1 // dataset and pool are fixed; -seed orders the requests
	clients     = 2 // closed-loop clients, one keep-alive connection each
	procs       = 2 // GOMAXPROCS and engine Parallelism
	corpusDocs  = 12
	shardsAsked = 4

	setupReps   = 3  // full builds per run; setup_s is their median
	restartReps = 5  // cold restarts per run; restart_ms is their median
	trustedReps = 51 // trusted opens per traced run (per-layer metric)

	hotRound = 1000 // requests per hot_fup round (Zipf counts sum to this)

	// drift_refine: one round is a full cycle of driftRotations hot sets.
	driftRotations = 6
	driftHot       = 8   // queries per hot set
	driftEpochs    = 6   // Tuner.Step epochs per rotation
	driftHotShare  = 0.9 // of a rotation's requests drawn from its hot set
)

// specs lists the workloads in the order they run; BENCHMARK.json has the
// same names and says why each exists.
var specs = []*spec{
	{
		name:     "hot_fup",
		scale:    1.0,
		hot:      16,
		poolSize: 200, warmRounds: 30, tracePrefix: 20000, refines: 30,
	},
	{
		name:     "cold_validate",
		scale:    1.0,
		poolSize: 200, warmRounds: 20, tracePrefix: 5000, refines: 30,
	},
	{
		name:     "sharded_scatter",
		corpus:   true,
		scale:    1.0,
		poolSize: 200, warmRounds: 40, tracePrefix: 10000, refines: 30,
	},
	{
		name:     "drift_refine",
		scale:    0.25,
		drift:    true,
		hot:      driftRotations * driftHot,
		epoch:    2000,
		poolSize: 200, tracePrefix: 5000,
	},
}

// smoke shrinks every spec so that all four workloads finish in seconds;
// the -smoke run exists to keep the harness building and its metric names
// honest, not to measure.
func smoke(sp *spec) *spec {
	s := *sp
	s.scale = 0.03
	if s.corpus {
		s.scale = 0.12
	}
	s.poolSize = 60
	s.warmRounds = 1
	s.tracePrefix = 200
	if s.drift {
		s.epoch = 100
	}
	if s.refines > 3 {
		s.refines = 3
	}
	return &s
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// metric names a reported value and its unit; direction and bound live in
// BENCHMARK.json (smoke_test.go checks the two agree).
type metric struct {
	name, unit string
}

// endToEnd is what a user of the server sees; measured with tracing off.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"cost_per_query", "nodes"},
	{"allocs_per_query", "count"},
	{"heap_mb", "MB"},
	{"refine_ms", "ms"},
	{"restart_ms", "ms"},
	{"snapshot_bytes_per_node", "B"},
}

// perLayer is reported by the traced run, one group per module.
var perLayer = []metric{
	{"pathexpr.parse_us", "us"},
	{"pathexpr.allocs", "count"},
	{"query.eval_us", "us"},
	{"query.index_nodes", "nodes"},
	{"query.data_nodes", "nodes"},
	{"query.precise_ratio", "ratio"},
	{"query.allocs", "count"},
	{"engine.self_us", "us"},
	{"engine.allocs", "count"},
	{"engine.cost_per_served", "nodes"},
	{"engine.build_s", "s"},
	{"engine.support_initial_s", "s"},
	{"engine.refine_ms", "ms"},
	{"engine.refine_noop_ratio", "ratio"},
	{"engine.publishes", "count"},
	{"shard.self_us", "us"},
	{"shard.fanout", "ratio"},
	{"shard.freeze_ms", "ms"},
	{"shard.partition_ms", "ms"},
	{"adapt.step_ms", "ms"},
	{"adapt.promotions", "count"},
	{"adapt.retires", "count"},
	{"adapt.evictions", "count"},
	{"serve.self_us", "us"},
	{"serve.allocs", "count"},
	{"serve.response_bytes", "B"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"http.self_us", "us"},
	{"http.allocs", "count"},
	{"http.loaded_p99_us", "us"},
	{"mmapstore.write_ms", "ms"},
	{"mmapstore.publish_ms", "ms"},
	{"mmapstore.open_verified_ms", "ms"},
	{"mmapstore.open_trusted_us", "us"},
	{"mmapstore.mapped_eval_ratio", "ratio"},
	{"store.graph_read_ms", "ms"},
	{"store.graph_write_ms", "ms"},
	{"store.graph_bytes_per_node", "B"},
	{"datagen.graph_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}
