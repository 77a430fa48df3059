package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mrx/internal/graph"
	"mrx/internal/latstat"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// Server serves path-expression queries over HTTP from any
// query.ContextQuerier. It owns the request lifecycle — parse, coalesce,
// admit, evaluate under the request's context, account — but is agnostic
// about what answers the query: the engine, a frozen index behind
// AsContextQuerier, or a test stub all serve identically.
type Server struct {
	// ExtraStats, when non-nil, is invoked per /stats request and its
	// result embedded under "backend" in the response — the hook through
	// which cmd/mrserve exposes engine stats and the AutoTune plan without
	// this package importing the engine.
	ExtraStats func() any

	q query.ContextQuerier
	// counter is q as a query.CountQuerier, or nil when q cannot count
	// without materialising; asserted once, in New.
	counter query.CountQuerier
	cfg     Config
	adm     *admission
	co      *coalescer
	ctr     counters
	start   time.Time
}

// New validates cfg and constructs a Server over q.
func New(q query.ContextQuerier, cfg Config) (*Server, error) {
	if q == nil {
		return nil, fmt.Errorf("%w: nil querier", ErrInvalidConfig)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	counter, _ := q.(query.CountQuerier)
	s := &Server{
		q:       q,
		counter: counter,
		cfg:     cfg,
		adm:     newAdmission(cfg),
		start:   time.Now(),
	}
	s.co = newCoalescer(s.eval)
	return s, nil
}

// Handler returns the server's routing table:
//
//	GET /query?q=//a/b[&answers=1]  evaluate one path expression: the answer
//	                                count and costs, plus the ids with answers=1
//	GET /stats                      serving counters, latency window, backend stats
//	GET /healthz                    liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Counters returns a snapshot of the serving counters (exported for tests
// and for cmd/mrserve's exit summary).
func (s *Server) Counters() CountersSnapshot { return s.ctr.snapshot() }

// QueryResponse is the JSON body of a successful /query evaluation.
type QueryResponse struct {
	Query     string         `json:"query"`
	Canonical string         `json:"canonical"`
	Answers   int            `json:"answers"`
	Answer    []graph.NodeID `json:"answer,omitempty"`
	IndexCost int            `json:"index_cost"`
	DataCost  int            `json:"data_cost"`
	Precise   bool           `json:"precise"`
	Coalesced bool           `json:"coalesced"`
	Micros    int64          `json:"micros"`
}

// StatsResponse is the JSON body of /stats.
type StatsResponse struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Config        Config           `json:"config"`
	Counters      CountersSnapshot `json:"counters"`
	QueueDepth    int64            `json:"queue_depth"`
	InFlight      int              `json:"in_flight"`
	Latency       latstat.Summary  `json:"latency"`
	Backend       any              `json:"backend,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

//mrx:hotpath request front end: every /query passes through here
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header()["Allow"] = allowGET
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	raw, answers := scanQuery(r.URL.RawQuery)
	if raw == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing q parameter"})
		return
	}
	e, err := pathexpr.Parse(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.ctr.Received.Add(1)

	// Without answers=1 only the count is sent, so a backend that can count
	// without materialising the ids is asked to.
	wantIDs := answers == "1"
	countOnly := s.counter != nil && !wantIDs
	key := flightKey{canonical: pathexpr.Canonical(e), countOnly: countOnly}
	start := time.Now()
	res, shared, err := s.co.do(r.Context(), key, e)
	switch {
	case err == nil:
		s.ctr.Served.Add(1)
		if shared {
			s.ctr.Coalesced.Add(1)
		}
		answers := len(res.Answer)
		if countOnly {
			answers = res.Count
		}
		resp := QueryResponse{
			Query:     raw,
			Canonical: key.canonical,
			Answers:   answers,
			IndexCost: res.Cost.IndexNodes,
			DataCost:  res.Cost.DataNodes,
			Precise:   res.Precise,
			Coalesced: shared,
			Micros:    time.Since(start).Microseconds(),
		}
		if wantIDs {
			resp.Answer = res.Answer
		}
		writeQueryResponse(w, &resp)
	case errors.Is(err, ErrShed):
		s.ctr.Shed.Add(1)
		secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The waiting client went away (or timed out): usually the write
		// below goes nowhere, but a deadline racing completion still gets
		// a well-formed response.
		s.ctr.Canceled.Add(1)
		writeJSON(w, http.StatusRequestTimeout, errorResponse{Error: err.Error()})
	default:
		s.ctr.Errored.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// eval is the coalescer's evaluation of one flight. Admission runs inside
// the flight: coalesced followers never consume queue capacity, only
// distinct expressions compete.
//
//mrx:coldpath the backend's read path is held to hot-path rules by its own roots (engine, static); this dispatch also reaches the materialising reference queriers behind AsContextQuerier
func (s *Server) eval(ctx context.Context, countOnly bool, e *pathexpr.Expr) (query.Result, error) {
	if err := s.adm.acquire(ctx); err != nil {
		return query.Result{}, err
	}
	defer s.adm.release()
	s.ctr.Flights.Add(1)
	t0 := time.Now()
	var r query.Result
	var err error
	if countOnly {
		r, err = s.counter.CountCtx(ctx, e)
	} else {
		r, err = s.q.QueryCtx(ctx, e)
	}
	if err == nil {
		s.adm.observe(time.Since(t0))
	}
	return r, err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Config:        s.cfg,
		Counters:      s.ctr.snapshot(),
		QueueDepth:    s.adm.depth(),
		InFlight:      s.adm.inFlight(),
		Latency:       s.adm.latency(),
	}
	if s.ExtraStats != nil {
		resp.Backend = s.ExtraStats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// writeJSON encodes v as the response body with the given status.
//
//mrx:coldpath error responses and /stats: encoding/json's reflection is affordable off the served path
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding a response struct cannot fail structurally; a mid-body
	// network error is the client's loss, not ours to handle.
	_ = enc.Encode(v)
}
