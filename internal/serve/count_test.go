package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrx/internal/engine"
	"mrx/internal/graph"
	"mrx/internal/gtest"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// countingStub is a stubQuerier that can also count: CountCtx blocks like
// QueryCtx and returns the same result without its ids.
type countingStub struct {
	stubQuerier
	counts atomic.Int64
}

func (s *countingStub) CountCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	s.counts.Add(1)
	res, err := s.stubQuerier.QueryCtx(ctx, e)
	return query.Result{Count: len(res.Answer), Cost: res.Cost, Precise: res.Precise}, err
}

// An answers=1 request and a count-only request for the same expression,
// in flight together, run as two flights: a count-only result has no ids
// and must never answer a request that asked for them.
func TestCountAndAnswersNeverShareAFlight(t *testing.T) {
	st := &countingStub{stubQuerier: stubQuerier{started: make(chan struct{}, 2), release: make(chan struct{})}}
	s := mustServer(t, st, DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := sync.OnceFunc(func() { close(st.release) })
	defer release() // before ts.Close, which waits for the blocked requests

	type reply struct {
		status int
		qr     QueryResponse
	}
	get := func(query string, out chan<- reply) {
		resp, err := http.Get(ts.URL + "/query?" + query)
		if err != nil {
			t.Error(err)
			out <- reply{}
			return
		}
		defer resp.Body.Close()
		var r reply
		r.status = resp.StatusCode
		if err := json.NewDecoder(resp.Body).Decode(&r.qr); err != nil {
			t.Error(err)
		}
		out <- r
	}
	ids, count := make(chan reply, 1), make(chan reply, 1)
	go get("q=//a/b&answers=1", ids)
	go get("q=//a/b", count)
	for i := 0; i < 2; i++ {
		select {
		case <-st.started:
		case <-time.After(5 * time.Second):
			t.Fatal("only one evaluation started: one request joined the other's flight")
		}
	}
	canon := pathexpr.Canonical(mustParse(t, "//a/b"))
	waitersFor(t, s.co, flightKey{canonical: canon}, 1)
	waitersFor(t, s.co, flightKey{canonical: canon, countOnly: true}, 1)
	release()

	r := <-ids
	if r.status != http.StatusOK || r.qr.Answers != 3 || len(r.qr.Answer) != 3 || r.qr.Coalesced {
		t.Fatalf("answers=1 reply: status %d, %+v", r.status, r.qr)
	}
	r = <-count
	if r.status != http.StatusOK || r.qr.Answers != 3 || r.qr.Answer != nil || r.qr.Coalesced {
		t.Fatalf("count-only reply: status %d, %+v", r.status, r.qr)
	}
	if got := st.counts.Load(); got != 1 {
		t.Fatalf("CountCtx called %d times, want 1", got)
	}
	if c := s.Counters(); c.Flights != 2 || c.Coalesced != 0 || c.Served != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// A backend that cannot count keeps the materialising path for every
// request, and its result may answer either kind of request.
func TestPlainQuerierServesCountFromAnswer(t *testing.T) {
	st := &stubQuerier{}
	s := mustServer(t, st, DefaultConfig())
	if s.counter != nil {
		t.Fatal("a plain querier was taken for a CountQuerier")
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q=//a/b", nil))
	var qr QueryResponse
	if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || qr.Answers != 3 || qr.Answer != nil {
		t.Fatalf("status %d, %+v", rec.Code, qr)
	}
}

// discardWriter is a reusable http.ResponseWriter: the guard resets it
// between requests, so its own allocations are not counted.
type discardWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(status int) {
	w.status = status
}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// maxCountPathAllocs is the allocation budget of one count-only /query on
// a supported (precise) FUP, handler entry to encoded body, with the
// backend's own share included. It is the measured count; raise it only
// with a reason.
const maxCountPathAllocs = 10

// The count path's allocations are pinned without timing anything, so they
// cannot creep back in unnoticed.
func TestCountPathAllocs(t *testing.T) {
	if gtest.RaceEnabled {
		t.Skip("the race detector drops pooled items and instruments allocation")
	}
	g := graph.PaperFigure1()
	en, err := engine.New(g, engine.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const q = "//open_auction/bidder/personref"
	e := mustParse(t, q)
	en.Support(e)
	want := len(en.Eval(e))
	h := mustServer(t, en, DefaultConfig()).Handler()
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(q), nil)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		w.status, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
	}
	serve()
	var qr QueryResponse
	if err := json.Unmarshal(w.body, &qr); err != nil {
		t.Fatal(err)
	}
	if w.status != http.StatusOK || qr.Answers != want || !qr.Precise || qr.Answer != nil {
		t.Fatalf("status %d, %+v; want %d precise answers", w.status, qr, want)
	}
	if n := testing.AllocsPerRun(200, serve); n > maxCountPathAllocs {
		t.Errorf("count-only /query allocates %v times per request, budget %d", n, maxCountPathAllocs)
	}
}
