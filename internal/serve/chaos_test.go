package serve

// Chaos suite: the serving layer over a real TCP socket with netem-impaired
// clients. Each scenario proves one robustness property the clean-loopback
// tests cannot see:
//
//   - admission slots and queue capacity are reclaimed when impaired
//     clients disconnect while waiting in the queue;
//   - the coalescer cancels an evaluation only when the LAST impaired
//     waiter detaches;
//   - wire impairment (latency + jitter) lands on the client's round trip,
//     never on the service-side latency the shed breaker observes;
//   - a slow-loris client trickling header bytes is cut off by
//     ReadHeaderTimeout before it ever reaches a handler;
//   - a client that stops reading its response (half-open reader) is cut
//     off by WriteTimeout instead of pinning the connection forever.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrx/internal/graph"
	"mrx/internal/netem"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// chaosQuerier is a controllable backend for the chaos scenarios: it
// signals call starts, blocks until released or canceled, and reports
// whether its evaluation context was canceled.
type chaosQuerier struct {
	answer    []graph.NodeID
	started   chan struct{}
	release   chan struct{} // nil: answer immediately
	calls     atomic.Int64
	canceled  atomic.Int64
	gotCancel chan struct{} // closed on the first canceled evaluation
	once      sync.Once
}

func (q *chaosQuerier) QueryCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	q.calls.Add(1)
	if q.started != nil {
		q.started <- struct{}{}
	}
	if q.release != nil {
		select {
		case <-q.release:
		case <-ctx.Done():
			q.canceled.Add(1)
			if q.gotCancel != nil {
				q.once.Do(func() { close(q.gotCancel) })
			}
			return query.Result{}, ctx.Err()
		}
	}
	ans := q.answer
	if ans == nil {
		ans = []graph.NodeID{1}
	}
	return query.Result{Answer: ans, Precise: true}, nil
}

// startChaosServer serves s over a real TCP listener with cfg's HTTP
// timeouts applied, so client-connection behavior (disconnects, trickle
// reads, slow headers) reaches the handler the way production traffic
// would. ln lets callers shrink socket buffers first; pass nil for a
// default loopback listener.
func startChaosServer(t *testing.T, s *Server, cfg Config, ln net.Listener) (addr string, hs *http.Server) {
	t.Helper()
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
	}
	hs = cfg.HTTPServer(s.Handler())
	go func(hs *http.Server, ln net.Listener) {
		_ = hs.Serve(ln)
	}(hs, ln)
	t.Cleanup(func() { _ = hs.Close() })
	return ln.Addr().String(), hs
}

// rawGet writes one GET request for q through an (optionally impaired)
// connection and returns the connection without reading the response.
func rawGet(t *testing.T, conn net.Conn, q string) error {
	t.Helper()
	_, err := fmt.Fprintf(conn, "GET /query?q=%s HTTP/1.1\r\nHost: chaos\r\n\r\n", q)
	return err
}

// dialImpaired opens a netem-wrapped connection to addr.
func dialImpaired(t *testing.T, addr string, prof netem.Profile, seed int64) *netem.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return netem.WrapConn(c, prof, seed, nil)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never observed: %s", what)
}

// Impaired clients that disconnect while waiting in the admission queue
// must hand their queue capacity back immediately, and their requests must
// be accounted as canceled — not served, not pinned until QueueTimeout.
func TestChaosDisconnectMidQueueReclaimsSlots(t *testing.T) {
	q := &chaosQuerier{started: make(chan struct{}, 8), release: make(chan struct{})}
	cfg := Config{MaxConcurrent: 1, QueueDepth: 2, QueueTimeout: time.Minute,
		Window: time.Second, RetryAfter: time.Second}
	s := mustServer(t, q, cfg)
	addr, _ := startChaosServer(t, s, cfg, nil)

	// Leader: a healthy client whose evaluation holds the only slot.
	leader := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/query?q=//lead")
		if err != nil {
			leader <- nil
			return
		}
		resp.Body.Close()
		leader <- resp
	}()
	<-q.started

	// Two impaired clients with distinct expressions join the wait queue,
	// then vanish mid-queue (an abrupt close, as a flaky mobile link
	// would).
	prof := netem.Profile{Latency: 2 * time.Millisecond, Jitter: time.Millisecond}
	var impaired []*netem.Conn
	for i := 0; i < 2; i++ {
		c := dialImpaired(t, addr, prof, int64(100+i))
		if err := rawGet(t, c, fmt.Sprintf("//q%d", i)); err != nil {
			t.Fatal(err)
		}
		impaired = append(impaired, c)
	}
	waitFor(t, "both impaired requests queued", func() bool { return s.adm.depth() == 2 })

	for _, c := range impaired {
		c.Close()
	}
	// The queue must drain NOW — QueueTimeout is a minute, so any residual
	// depth would mean the slot leaked until then.
	waitFor(t, "queue capacity reclaimed after disconnect", func() bool { return s.adm.depth() == 0 })
	waitFor(t, "both disconnects accounted as canceled", func() bool {
		return s.Counters().Canceled == 2
	})

	// The reclaimed capacity serves the next client.
	close(q.release)
	if resp := <-leader; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("leader finished with %+v", resp)
	}
	resp, err := http.Get("http://" + addr + "/query?q=//after")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos request: status %d, want 200", resp.StatusCode)
	}
	if c := s.Counters(); c.Served != 2 || c.Canceled != 2 || c.Shed != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// With several impaired waiters coalesced onto one flight, the evaluation
// must keep running until the LAST waiter's connection dies — one flaky
// client cannot kill a result the others still want.
func TestChaosCoalescerCancelsOnlyAfterLastWaiterDetaches(t *testing.T) {
	q := &chaosQuerier{started: make(chan struct{}, 1), release: make(chan struct{}),
		gotCancel: make(chan struct{})}
	defer close(q.release)
	cfg := DefaultConfig()
	s := mustServer(t, q, cfg)
	addr, _ := startChaosServer(t, s, cfg, nil)

	prof := netem.Profile{Latency: time.Millisecond, Jitter: time.Millisecond}
	const n = 3
	conns := make([]*netem.Conn, n)
	for i := range conns {
		conns[i] = dialImpaired(t, addr, prof, int64(200+i))
		if err := rawGet(t, conns[i], "//a/b"); err != nil {
			t.Fatal(err)
		}
	}
	key := flightKey{canonical: pathexpr.Canonical(mustParse(t, "//a/b"))}
	waitersFor(t, s.co, key, n)
	if got := q.calls.Load(); got != 1 {
		t.Fatalf("backend called %d times for one coalesced key, want 1", got)
	}

	// Kill all but the last waiter: the flight must survive.
	for i := 0; i < n-1; i++ {
		conns[i].Close()
		waitersFor(t, s.co, key, n-1-i)
	}
	select {
	case <-q.gotCancel:
		t.Fatal("evaluation canceled while a waiter's connection was alive")
	case <-time.After(100 * time.Millisecond):
	}

	// Kill the last one: now nobody wants the result, the exec context
	// must be canceled.
	conns[n-1].Close()
	select {
	case <-q.gotCancel:
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation not canceled after the last waiter detached")
	}
}

// Wire impairment must land on impaired clients' round trips, not on the
// service-side latency window the shed breaker observes: jittery clients
// make themselves slow, not the server.
func TestChaosServedP99HoldsUnderJitter(t *testing.T) {
	q := &chaosQuerier{}
	cfg := Config{MaxConcurrent: 4, QueueDepth: 16, QueueTimeout: time.Second,
		Window: time.Minute, RetryAfter: time.Second}
	s := mustServer(t, q, cfg)
	addr, _ := startChaosServer(t, s, cfg, nil)

	const (
		latency = 20 * time.Millisecond
		jitter  = 10 * time.Millisecond
		clients = 4
		perConn = 5
	)
	var wg sync.WaitGroup
	var slowest atomic.Int64 // fastest observed RTT per client, max'd below
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := &netem.Dialer{Profile: netem.Profile{Latency: latency, Jitter: jitter},
				Seed: int64(300 + i)}
			client := &http.Client{Transport: &http.Transport{DialContext: d.DialContext},
				Timeout: 30 * time.Second}
			for j := 0; j < perConn; j++ {
				t0 := time.Now()
				resp, err := client.Get("http://" + addr + "/query?q=//a/b" + fmt.Sprint(i))
				if err != nil {
					errs <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
				rtt := time.Since(t0)
				for {
					cur := slowest.Load()
					if int64(rtt) <= cur || slowest.CompareAndSwap(cur, int64(rtt)) {
						break
					}
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// The impairment floor is real: a round trip crosses the impaired leg
	// at least twice (request out, response back).
	if got := time.Duration(slowest.Load()); got < 2*(latency-jitter) {
		t.Fatalf("slowest impaired RTT %v under the impairment floor %v", got, 2*(latency-jitter))
	}
	// But the service-side window — what -shed-p99 governs — never saw
	// any of it: the backend answers in microseconds and the wire delay
	// happens outside the slot.
	if p99 := s.adm.latency().P99; p99 > 10*time.Millisecond {
		t.Fatalf("service-side p99 %v absorbed wire impairment (want ≤10ms)", p99)
	}
	if served := s.Counters().Served; served != clients*perConn {
		t.Fatalf("served %d, want %d", served, clients*perConn)
	}
}

// A slow-loris client trickling header bytes one at a time must be cut off
// by ReadHeaderTimeout before its request ever reaches a handler.
func TestChaosSlowLorisCutOffByReadHeaderTimeout(t *testing.T) {
	q := &chaosQuerier{}
	cfg := Config{QueueDepth: 8, ReadHeaderTimeout: 150 * time.Millisecond,
		WriteTimeout: 5 * time.Second, ReadTimeout: 5 * time.Second, IdleTimeout: 5 * time.Second}
	s := mustServer(t, q, cfg)
	addr, _ := startChaosServer(t, s, cfg, nil)

	// One header byte every 30ms: the full request would take >1s, far
	// past the 150ms header budget.
	c := dialImpaired(t, addr, netem.Profile{ChunkBytes: 1, Latency: 30 * time.Millisecond}, 400)
	defer c.Close()

	start := time.Now()
	err := rawGet(t, c, "//a/b")
	if err == nil {
		// The write survived local buffering; the server must still have
		// closed the connection on us.
		buf := make([]byte, 1)
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err = c.Read(buf)
	}
	if err == nil {
		t.Fatal("slow-loris connection was never cut off")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("cutoff took %v, want roughly ReadHeaderTimeout", elapsed)
	}
	if got := q.calls.Load(); got != 0 {
		t.Fatalf("slow-loris request reached the backend %d times", got)
	}
	if c := s.Counters(); c.Received != 0 {
		t.Fatalf("slow-loris request was parsed and counted: %+v", c)
	}
}

// A client that requests a large answer and then stops reading (a trickle
// reader gone half-open) must be cut off by WriteTimeout: the connection
// closes, the handler goroutine finishes, and — crucially — the admission
// slot was released before the write ever started, so the stalled client
// pinned no serving capacity.
func TestChaosTrickleReaderCannotPinConnection(t *testing.T) {
	// A ~450KB answer, so the response cannot hide in the shrunken socket
	// buffers, yet small enough that encoding it under the race detector
	// still starts writing well inside WriteTimeout.
	answer := make([]graph.NodeID, 1<<16)
	for i := range answer {
		answer[i] = graph.NodeID(i)
	}
	q := &chaosQuerier{answer: answer}
	cfg := Config{QueueDepth: 8, MaxConcurrent: 2,
		ReadHeaderTimeout: 2 * time.Second, ReadTimeout: 5 * time.Second,
		WriteTimeout: 300 * time.Millisecond, IdleTimeout: time.Minute}
	s := mustServer(t, q, cfg)

	// Shrink the server-side socket buffer so the blocked client
	// back-pressures the handler's write quickly.
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	var closeOnce sync.Once
	hs := cfg.HTTPServer(s.Handler())
	hs.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateClosed {
			closeOnce.Do(func() { close(closed) })
		}
	}
	ln := smallWriteBufListener{raw}
	go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(hs, ln)
	t.Cleanup(func() { _ = hs.Close() })
	addr := raw.Addr().String()

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10) // tiny receive window: reads matter
	}
	if err := rawGet(t, c, "//a/b&answers=1"); err != nil {
		t.Fatal(err)
	}
	// Read a token amount, then never again: the half-open-reader shape.
	buf := make([]byte, 1)
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := c.Read(buf); err != nil {
		t.Fatalf("first response byte: %v", err)
	}

	select {
	case <-closed:
	case <-time.After(15 * time.Second):
		t.Fatal("trickle-reading client pinned the connection past WriteTimeout")
	}
	// The query itself was served — the slot came back before the write
	// stalled, which is exactly why slow readers cannot exhaust serving
	// capacity.
	if c := s.Counters(); c.Served != 1 {
		t.Fatalf("counters: %+v (the evaluation should have completed)", c)
	}
}

// smallWriteBufListener shrinks accepted conns' kernel send buffer so
// write back-pressure appears at small response sizes.
type smallWriteBufListener struct{ net.Listener }

func (l smallWriteBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, nil
}
