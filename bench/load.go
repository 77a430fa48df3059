package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mrx/internal/adapt"
	"mrx/internal/engine"
)

// phaseOpts says which requests a closed-loop phase issues: exactly count
// requests of the stream starting at from, or — when count is zero — whole
// rounds from the start of the stream until dur has elapsed.
type phaseOpts struct {
	from, count int64
	dur         time.Duration
}

// windowLen is the least time a window of the timed phase covers. A window
// is the fewest whole rounds that last this long.
const windowLen = time.Second

// window is what the clients saw during one window of a timed phase.
type window struct {
	lat  hist
	ok   int64
	wall time.Duration
}

// step is one Tuner.Step call made beside the readers.
type step struct {
	dur     time.Duration
	changed int // decisions that published a new index
}

// phaseResult is what one closed-loop phase observed from the client side.
type phaseResult struct {
	attempted int64
	failed    int64
	cost      int64 // Σ index_cost+data_cost over correct responses
	wall      time.Duration
	mallocs   uint64 // process-wide, client included
	windows   []window
	steps     []step
}

// overWindows returns the midmean over the phase's windows of f. A run's
// number is taken from its windows, not from the phase as a whole, so that a
// disturbance lasting a second or two (a noisy neighbour, a page-cache
// flush) lands in the trimmed quarter instead of moving the result.
func (r *phaseResult) overWindows(f func(*window) float64) float64 {
	vals := make([]float64, len(r.windows))
	for i := range r.windows {
		vals[i] = f(&r.windows[i])
	}
	return midmean(vals)
}

// midmean is the mean of xs without its lowest and highest quarters
// (rounded down, so up to three values it is the plain mean): as steady as
// a mean when the noise is even, as deaf to a few outliers as a median.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// gate admits requests by index. A fixed phase admits [from, end). A timed
// phase issues whole rounds only: a round is approved as a unit, by
// whichever client reaches it first, and once the deadline has passed no
// further round is approved. Approving a round also closes the current
// window when it has lasted windowLen.
type gate struct {
	end int64 // fixed phase: first index not admitted; 0 for a timed phase

	round    int64
	approved atomic.Int64 // rounds approved so far
	win      atomic.Int32 // current window
	mu       sync.Mutex
	closed   bool
	dur      time.Duration
	bounds   []time.Time // bounds[w] is when window w began
}

func (g *gate) admit(i int64) bool {
	if g.end > 0 {
		return i < g.end
	}
	r := i / g.round
	if r < g.approved.Load() {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.closed && g.approved.Load() <= r {
		now := time.Now()
		if now.Sub(g.bounds[0]) >= g.dur {
			g.closed = true
			break
		}
		if now.Sub(g.bounds[len(g.bounds)-1]) >= windowLen {
			g.bounds = append(g.bounds, now)
			g.win.Add(1)
		}
		g.approved.Add(1)
	}
	return r < g.approved.Load()
}

// clientStats is one client's share of a phase.
type clientStats struct {
	attempted, failed, cost int64
	windows                 []window
}

// runPhase drives the server with the closed-loop clients, which share one
// request stream. Every response is checked for status and answer count; a
// failed request records no latency. On drift_refine a further goroutine
// calls Tuner.Step once per sp.epoch completed requests.
func (s *system) runPhase(p *prepared, o phaseOpts) phaseResult {
	g := &gate{round: int64(p.seq.round), dur: o.dur}
	if o.count > 0 {
		g.end = o.from + o.count
	}
	maxWindows := int(o.dur/windowLen) + 2

	var tuner *adapt.Tuner
	if en, ok := s.be.(*engine.Engine); ok && p.sp.drift {
		tuner = en.Tuner()
	}
	st := newStepper(tuner, int64(p.sp.epoch))

	var next atomic.Int64
	next.Store(o.from)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	g.bounds = []time.Time{start}
	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func(out *clientStats) {
			defer wg.Done()
			out.windows = make([]window, maxWindows)
			cl := newHTTPClient()
			defer cl.CloseIdleConnections()
			reqs := make([]*http.Request, len(p.queries))
			var body bytes.Buffer
			for {
				i := next.Add(1) - 1
				if !g.admit(i) {
					return
				}
				w := &out.windows[min(int(g.win.Load()), maxWindows-1)]
				id := p.seq.at(i)
				out.attempted++
				if reqs[id] == nil {
					// A request may be reused once its response body is
					// closed, which a closed loop guarantees.
					req, err := http.NewRequest(http.MethodGet, queryURL(s.base, p.queries[id], false), nil)
					if err != nil {
						out.failed++
						continue
					}
					reqs[id] = req
				}
				t0 := time.Now()
				rep, ok := do(cl, reqs[id], &body)
				d := time.Since(t0)
				if ok && rep.answers == len(p.want[id]) {
					w.lat.record(d)
					w.ok++
					out.cost += int64(rep.indexCost + rep.dataCost)
				} else {
					out.failed++
				}
				st.completed()
			}
		}(&stats[c])
	}
	wg.Wait()
	end := time.Now()
	runtime.ReadMemStats(&after)
	res := phaseResult{wall: end.Sub(start), mallocs: after.Mallocs - before.Mallocs, steps: st.stop()}

	bounds := append(g.bounds, end)
	for w := 0; w+1 < len(bounds); w++ {
		win := window{wall: bounds[w+1].Sub(bounds[w])}
		for c := range stats {
			cw := &stats[c].windows[min(w, maxWindows-1)]
			win.lat.merge(&cw.lat)
			win.ok += cw.ok
		}
		// The deadline can cut the last window short; fold a stub into the
		// window before it.
		if n := len(res.windows); n > 0 && w+2 == len(bounds) && win.wall < windowLen/2 {
			last := &res.windows[n-1]
			last.lat.merge(&win.lat)
			last.ok += win.ok
			last.wall += win.wall
			continue
		}
		res.windows = append(res.windows, win)
	}
	for c := range stats {
		res.attempted += stats[c].attempted
		res.failed += stats[c].failed
		res.cost += stats[c].cost
	}
	return res
}

// stepper calls Tuner.Step from its own goroutine, beside the readers, once
// per epoch completed requests. The tuner may be at most one epoch behind:
// the client that completes an epoch while the previous epoch's Step is
// still running waits for it, so epochs stay aligned with request counts
// and no Step ever sees an epoch without requests. A stepper without a
// tuner does nothing.
type stepper struct {
	tuner *adapt.Tuner
	epoch int64
	done  atomic.Int64
	due   chan struct{} // unbuffered: a send waits for the previous Step
	wg    sync.WaitGroup
	steps []step
}

func newStepper(tuner *adapt.Tuner, epoch int64) *stepper {
	st := &stepper{tuner: tuner, epoch: epoch, due: make(chan struct{})}
	if tuner == nil {
		return st
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		for range st.due {
			t0 := time.Now()
			plan := tuner.Step()
			rec := step{dur: time.Since(t0)}
			for _, d := range plan.Decisions {
				if d.Changed {
					rec.changed++
				}
			}
			st.steps = append(st.steps, rec)
		}
	}()
	return st
}

// completed counts one finished request.
func (st *stepper) completed() {
	if st.tuner != nil && st.done.Add(1)%st.epoch == 0 {
		st.due <- struct{}{}
	}
}

// stop lets the running Step finish and returns every Step made.
func (st *stepper) stop() []step {
	close(st.due)
	st.wg.Wait()
	return st.steps
}

// do sends one request and reads the whole reply into body.
func do(cl *http.Client, req *http.Request, body *bytes.Buffer) (reply, bool) {
	resp, err := cl.Do(req)
	if err != nil {
		return reply{}, false
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return reply{}, false
	}
	return parseReply(body.Bytes())
}
