package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// stubQuerier is a controllable ContextQuerier: it counts calls, optionally
// blocks until released (or its context is canceled), and returns a fixed
// answer.
type stubQuerier struct {
	calls   atomic.Int64
	started chan struct{} // receives one token per call that begins
	release chan struct{} // calls block until this closes (nil: no blocking)
}

func (s *stubQuerier) QueryCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	s.calls.Add(1)
	if s.started != nil {
		s.started <- struct{}{}
	}
	if s.release != nil {
		select {
		case <-s.release:
		case <-ctx.Done():
			return query.Result{}, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return query.Result{}, err
	}
	return query.Result{Answer: []graph.NodeID{1, 2, 3}, Precise: true}, nil
}

func mustServer(t *testing.T, q query.ContextQuerier, cfg Config) *Server {
	t.Helper()
	s, err := New(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitersFor polls until the coalescer has n waiters registered for key
// (or the deadline passes), making the concurrent tests deterministic.
func waitersFor(t *testing.T, c *coalescer, key flightKey, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		f := c.flights[key]
		got := 0
		if f != nil {
			got = f.waiters
		}
		c.mu.Unlock()
		if got == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d waiters for %+v", n, key)
}

// N concurrent requests for the same canonical expression must collapse
// into one evaluation whose result every waiter receives.
func TestCoalescerCollapsesIdenticalQueries(t *testing.T) {
	const n = 20
	var calls atomic.Int64
	release := make(chan struct{})
	co := newCoalescer(func(ctx context.Context, _ bool, _ *pathexpr.Expr) (query.Result, error) {
		calls.Add(1)
		<-release
		return query.Result{Answer: []graph.NodeID{7}, Precise: true}, nil
	})

	var wg sync.WaitGroup
	results := make([]query.Result, n)
	shareds := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shareds[i], errs[i] = co.do(context.Background(), flightKey{canonical: "k"}, nil)
		}(i)
	}
	waitersFor(t, co, flightKey{canonical: "k"}, n)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("exec ran %d times, want 1", got)
	}
	nshared := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if len(results[i].Answer) != 1 || results[i].Answer[0] != 7 {
			t.Fatalf("waiter %d got %v", i, results[i].Answer)
		}
		if shareds[i] {
			nshared++
		}
	}
	if nshared != n-1 {
		t.Fatalf("shared for %d waiters, want %d (all but the leader)", nshared, n-1)
	}
	// The finished flight must be unpublished: a later call starts fresh.
	if _, ok := co.flights[flightKey{canonical: "k"}]; ok {
		t.Fatal("finished flight still published")
	}
}

// Distinct canonical expressions must never coalesce.
func TestCoalescerKeepsDistinctQueriesApart(t *testing.T) {
	var calls atomic.Int64
	co := newCoalescer(func(ctx context.Context, _ bool, _ *pathexpr.Expr) (query.Result, error) {
		calls.Add(1)
		return query.Result{}, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, shared, err := co.do(context.Background(), flightKey{canonical: fmt.Sprintf("k%d", i)}, nil); err != nil || shared {
				t.Errorf("key k%d: shared=%v err=%v", i, shared, err)
			}
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 8 {
		t.Fatalf("exec ran %d times, want 8", got)
	}
}

// When every waiter detaches, the evaluation's context must be canceled;
// while any waiter remains, it must not be.
func TestCoalescerCancelsWhenAllWaitersLeave(t *testing.T) {
	execCanceled := make(chan struct{})
	co := newCoalescer(func(ctx context.Context, _ bool, _ *pathexpr.Expr) (query.Result, error) {
		<-ctx.Done()
		close(execCanceled)
		return query.Result{}, ctx.Err()
	})

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, _, errs[0] = co.do(ctx1, flightKey{canonical: "k"}, nil) }()
	go func() { defer wg.Done(); _, _, errs[1] = co.do(ctx2, flightKey{canonical: "k"}, nil) }()
	waitersFor(t, co, flightKey{canonical: "k"}, 2)

	cancel1() // one waiter leaves; the other still wants the result
	select {
	case <-execCanceled:
		t.Fatal("evaluation canceled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}
	cancel2() // last waiter leaves: now the evaluation must stop
	select {
	case <-execCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation not canceled after the last waiter left")
	}
	wg.Wait()
	if !errors.Is(errs[0], context.Canceled) || !errors.Is(errs[1], context.Canceled) {
		t.Fatalf("waiter errors = %v, %v; want context.Canceled", errs[0], errs[1])
	}
}

// With all slots held and the wait queue full, further arrivals must shed
// immediately; a queued request must shed after QueueTimeout.
func TestAdmissionSheds(t *testing.T) {
	cfg := Config{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 30 * time.Millisecond,
		Window: time.Second, RetryAfter: time.Second}
	a := newAdmission(cfg.withDefaults())
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fill the one queue position with a request that will time out.
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.depth() != 1 {
		t.Fatal("second acquire never queued")
	}
	// Queue full: the third arrival is shed without waiting.
	if err := a.acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow acquire: %v, want ErrShed", err)
	}
	// The queued request sheds once QueueTimeout passes.
	if err := <-queued; !errors.Is(err, ErrShed) {
		t.Fatalf("queued acquire: %v, want ErrShed after timeout", err)
	}
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	a.release()
}

// With the latency breaker enabled and the observed p99 over the bound,
// arrivals that would queue are shed before consuming queue capacity.
func TestAdmissionP99Breaker(t *testing.T) {
	cfg := Config{MaxConcurrent: 1, QueueDepth: 16, QueueTimeout: time.Second,
		ShedP99: time.Millisecond, Window: time.Minute, RetryAfter: time.Second}
	a := newAdmission(cfg.withDefaults())
	for i := 0; i < 100; i++ {
		a.observe(50 * time.Millisecond) // way over the 1ms bound
	}
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("fast path must stay open below saturation: %v", err)
	}
	err := a.acquire(context.Background())
	if !errors.Is(err, ErrShed) {
		t.Fatalf("acquire with hot p99: %v, want ErrShed", err)
	}
	if a.depth() != 0 {
		t.Fatalf("breaker shed consumed queue capacity (depth %d)", a.depth())
	}
	a.release()
}

// End to end over HTTP: parse errors, health, stats and a served query.
func TestServerHTTP(t *testing.T) {
	st := &stubQuerier{}
	s := mustServer(t, st, DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?q=//a/b&answers=1")
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Answers != 3 || len(qr.Answer) != 3 || !qr.Precise {
		t.Fatalf("query: status %d, %+v", resp.StatusCode, qr)
	}
	if qr.Canonical == "" || qr.Coalesced {
		t.Fatalf("query metadata: %+v", qr)
	}

	resp, err = http.Get(ts.URL + "/query?q=//a//b//")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Counters.Served != 1 || sr.Counters.Flights != 1 || sr.Counters.Shed != 0 {
		t.Fatalf("stats counters: %+v", sr.Counters)
	}
}

// Saturating the queue over HTTP must produce 429 with a Retry-After
// header while the in-flight request still completes.
func TestServerShedsOverHTTP(t *testing.T) {
	st := &stubQuerier{started: make(chan struct{}, 8), release: make(chan struct{})}
	s := mustServer(t, st, Config{MaxConcurrent: 1, QueueDepth: 1,
		QueueTimeout: 5 * time.Second, Window: time.Second, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(q string, out chan<- *http.Response) {
		resp, err := http.Get(ts.URL + "/query?q=" + q)
		if err != nil {
			t.Error(err)
			out <- nil
			return
		}
		resp.Body.Close()
		out <- resp
	}

	first := make(chan *http.Response, 1)
	go get("//a/b", first)
	<-st.started // the slot is now held

	second := make(chan *http.Response, 1)
	go get("//c/d", second)
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.adm.depth() != 1 {
		t.Fatal("second query never queued")
	}

	// Queue full: the third distinct query is shed immediately.
	resp, err := http.Get(ts.URL + "/query?q=//e/f")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow query: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}

	close(st.release) // let the in-flight and queued queries finish
	for _, ch := range []chan *http.Response{first, second} {
		if resp := <-ch; resp == nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("blocked query finished with %v", resp)
		}
	}
	c := s.Counters()
	if c.Served != 2 || c.Shed != 1 || c.Flights != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

// Concurrent identical queries over HTTP collapse into one backend call.
func TestServerCoalescesOverHTTP(t *testing.T) {
	const n = 10
	st := &stubQuerier{started: make(chan struct{}, 1), release: make(chan struct{})}
	s := mustServer(t, st, DefaultConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/query?q=//a/b")
			if err != nil {
				out <- 0
				return
			}
			resp.Body.Close()
			out <- resp.StatusCode
		}()
	}
	<-st.started
	// //a/b and /descendant::a/b spellings share one canonical key.
	waitersFor(t, s.co, flightKey{canonical: pathexpr.Canonical(mustParse(t, "//a/b"))}, n)
	close(st.release)
	for i := 0; i < n; i++ {
		if code := <-out; code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := st.calls.Load(); got != 1 {
		t.Fatalf("backend called %d times, want 1", got)
	}
	c := s.Counters()
	if c.Served != n || c.Coalesced != n-1 || c.Flights != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// A canceled request context must cancel the backend evaluation (when it
// is the only waiter) and be accounted as canceled.
func TestServerCancelPropagates(t *testing.T) {
	st := &stubQuerier{started: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(st.release)
	s := mustServer(t, st, DefaultConfig())

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/query?q=//a/b", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	<-st.started
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after cancel")
	}
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408", rec.Code)
	}
	if c := s.Counters(); c.Canceled != 1 || c.Served != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// New must reject invalid configurations and a nil backend: every
// validated Config field is exercised once, and every failure wraps the
// errors.Is-able sentinel.
func TestConfigValidation(t *testing.T) {
	st := &stubQuerier{}
	bad := []struct {
		name string
		cfg  Config
	}{
		{"negative max concurrent", Config{MaxConcurrent: -1, QueueDepth: 1}},
		{"zero queue depth", Config{QueueDepth: 0}},
		{"negative queue depth", Config{QueueDepth: -3}},
		{"negative queue timeout", Config{QueueDepth: 1, QueueTimeout: -time.Second}},
		{"negative shed p99", Config{QueueDepth: 1, ShedP99: -1}},
		{"negative window", Config{QueueDepth: 1, Window: -time.Minute}},
		{"negative retry after", Config{QueueDepth: 1, RetryAfter: -time.Second}},
		{"negative read header timeout", Config{QueueDepth: 1, ReadHeaderTimeout: -time.Second}},
		{"negative read timeout", Config{QueueDepth: 1, ReadTimeout: -1}},
		{"negative write timeout", Config{QueueDepth: 1, WriteTimeout: -time.Minute}},
		{"negative idle timeout", Config{QueueDepth: 1, IdleTimeout: -time.Hour}},
	}
	for _, tc := range bad {
		s, err := New(st, tc.cfg)
		if err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", tc.name, err)
		}
		if s != nil {
			t.Errorf("%s: New returned both a server and an error", tc.name)
		}
	}
	if _, err := New(nil, DefaultConfig()); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("New(nil querier): %v, want ErrInvalidConfig", err)
	}
	if _, err := New(st, DefaultConfig()); err != nil {
		t.Errorf("New rejected DefaultConfig: %v", err)
	}
}

// HTTPServer must carry the configured timeouts onto the http.Server and
// resolve zero fields to the documented defaults.
func TestConfigHTTPServer(t *testing.T) {
	cfg := Config{QueueDepth: 1, ReadHeaderTimeout: 123 * time.Millisecond,
		WriteTimeout: 456 * time.Millisecond}
	hs := cfg.HTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != 123*time.Millisecond || hs.WriteTimeout != 456*time.Millisecond {
		t.Fatalf("explicit timeouts not applied: %+v", hs)
	}
	if hs.ReadTimeout != 30*time.Second || hs.IdleTimeout != 2*time.Minute {
		t.Fatalf("zero timeouts not defaulted: read %v idle %v", hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.Handler == nil {
		t.Fatal("handler not installed")
	}
}

// A request canceled while waiting in the admission queue must release its
// queue slot immediately — not at QueueTimeout — so the capacity is
// available to the next arrival.
func TestAdmissionQueueSlotReclaimedOnPreAdmissionCancel(t *testing.T) {
	cfg := Config{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: time.Minute,
		Window: time.Second, RetryAfter: time.Second}
	a := newAdmission(cfg.withDefaults())
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err) // hold the only slot
	}

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.depth() != 1 {
		t.Fatal("waiter never queued")
	}

	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}
	// The slot must be back immediately — with QueueTimeout at a minute, a
	// leak would keep depth at 1 far beyond this poll.
	deadline = time.Now().Add(5 * time.Second)
	for a.depth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := a.depth(); got != 0 {
		t.Fatalf("queue depth %d after cancel, want 0 (slot leaked)", got)
	}

	// Reclaimed capacity: a fresh arrival queues (is not shed) and gets
	// the slot once the holder releases.
	again := make(chan error, 1)
	go func() { again <- a.acquire(context.Background()) }()
	deadline = time.Now().Add(5 * time.Second)
	for a.depth() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.depth() != 1 {
		t.Fatal("post-cancel arrival did not reuse the reclaimed queue slot")
	}
	a.release()
	if err := <-again; err != nil {
		t.Fatalf("post-cancel arrival failed: %v", err)
	}
	a.release()
}

func mustParse(t *testing.T, s string) *pathexpr.Expr {
	t.Helper()
	e, err := pathexpr.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
