package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mrx/internal/graph"
	"mrx/internal/pathexpr"
)

// refHandleQuery is handleQuery as it was before the map-free query scan
// and the append-style encoder, kept as the oracle for both: r.URL.Query()
// → Parse → Canonical, and writeJSON for every response. The only change
// is the flight: its closure body is Server.eval now, so the reference
// passes the expression to do as the served path does.
func (s *Server) refHandleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	params := r.URL.Query()
	raw := params.Get("q")
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
	wantIDs := params.Get("answers") == "1"
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
		writeJSON(w, http.StatusOK, resp)
	case errors.Is(err, ErrShed):
		s.ctr.Shed.Add(1)
		secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.ctr.Canceled.Add(1)
		writeJSON(w, http.StatusRequestTimeout, errorResponse{Error: err.Error()})
	default:
		s.ctr.Errored.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

// microsField matches the one field of a /query answer that is a timing.
var microsField = regexp.MustCompile(`"micros":[0-9]+}`)

// queryRequest builds a GET /query carrying rawQuery untouched, so inputs
// that no URL parser would produce still reach the front end.
func queryRequest(rawQuery string) *http.Request {
	return &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/query", RawQuery: rawQuery}, Header: http.Header{}}
}

// For any raw query string, the served front end answers as the reference
// does: the same status, headers, counters and body, the micros timing
// aside. The scan alone agrees with url.ParseQuery + Get on both keys.
func FuzzQueryFrontEnd(f *testing.F) {
	for _, seed := range []string{
		"q=%2F%2Fa%2Fb", "q=//a/b&answers=1", "q=a&q=b", "q=&q=//a",
		"%71=//a", "q=%zz&q=//a", "q=a;b", "q=+a",
		"answers=1&q=", "answers=%31&q=//a",
		"q=%3Ca%3E", "q=%ff", "q=%E2%80%A8",
		"q=//a;b&q=//c", "q&q=//a", "answers&q=//a",
		"q=//a&answers=1;x&answers=1", "&&q=//a&", "q=//a//b//", "", "q",
		"answers=1&answers=0&q=//a", "q%zz=1&q=//b", "a=%zz&q=//a&answers=%3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, rawQuery string) {
		q, answers := scanQuery(rawQuery)
		params, _ := url.ParseQuery(rawQuery)
		if q != params.Get("q") || answers != params.Get("answers") {
			t.Fatalf("scanQuery(%q) = %q, %q; url.Values has %q, %q", rawQuery, q, answers, params.Get("q"), params.Get("answers"))
		}

		st := &countingStub{}
		got, want := mustFuzzServer(t, st), mustFuzzServer(t, st)
		gotRec, wantRec := httptest.NewRecorder(), httptest.NewRecorder()
		got.handleQuery(gotRec, queryRequest(rawQuery))
		want.refHandleQuery(wantRec, queryRequest(rawQuery))
		if gotRec.Code != wantRec.Code {
			t.Fatalf("%q: status %d, reference %d", rawQuery, gotRec.Code, wantRec.Code)
		}
		if g, w := gotRec.Header(), wantRec.Header(); !equalHeaders(g, w) {
			t.Fatalf("%q: headers %v, reference %v", rawQuery, g, w)
		}
		gotBody := microsField.ReplaceAll(gotRec.Body.Bytes(), []byte(`"micros":0}`))
		wantBody := microsField.ReplaceAll(wantRec.Body.Bytes(), []byte(`"micros":0}`))
		if !bytes.Equal(gotBody, wantBody) {
			t.Fatalf("%q: body\n%s\nreference\n%s", rawQuery, gotBody, wantBody)
		}
		if g, w := got.Counters(), want.Counters(); g != w {
			t.Fatalf("%q: counters %+v, reference %+v", rawQuery, g, w)
		}
	})
}

func mustFuzzServer(t *testing.T, st *countingStub) *Server {
	t.Helper()
	s, err := New(st, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func equalHeaders(a, b http.Header) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv := b[k]
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// appendQueryResponse writes exactly the bytes json.Encoder writes for any
// response, whatever its strings hold: invalid UTF-8, HTML metacharacters,
// U+2028/U+2029, control bytes, and nil, empty or long answers.
func FuzzQueryResponse(f *testing.F) {
	long := make([]byte, 4*600)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add("//a/b", "//a/b", 3, []byte{1, 0, 0, 0, 2, 0, 0, 0}, false, 4, 5, true, false, int64(17))
	f.Add("<a>&b", "/a\\b\"", 0, []byte(nil), true, 0, 0, false, true, int64(0))
	f.Add("a<b", "a>b", 0, []byte(nil), true, 0, 0, false, false, int64(0))
	f.Add("a\nb", "\x01", 0, []byte(nil), true, 0, 0, false, false, int64(0))
	f.Add("a&b", "a\"b", 0, []byte(nil), true, 0, 0, false, false, int64(0))
	f.Add("a\\b", "a b ", 0, []byte(nil), true, 0, 0, false, false, int64(0))
	f.Add("\xff\xfe", "  ", -1, []byte{}, false, -7, 1<<40, true, true, int64(-3))
	f.Add("\x00\x1f\x7f\t\n\r\b\f", "é☃", 1<<30, []byte{0xff, 0xff, 0xff, 0xff}, false, 0, 0, false, false, int64(1)<<62)
	f.Add("//person/name", "//person/name", 600, long, false, 12, 3, true, false, int64(42))
	f.Fuzz(func(t *testing.T, query, canonical string, answers int, ids []byte, nilAnswer bool,
		indexCost, dataCost int, precise, coalesced bool, micros int64) {
		r := QueryResponse{Query: query, Canonical: canonical, Answers: answers, IndexCost: indexCost,
			DataCost: dataCost, Precise: precise, Coalesced: coalesced, Micros: micros}
		if !nilAnswer {
			r.Answer = make([]graph.NodeID, len(ids)/4)
			for i := range r.Answer {
				r.Answer[i] = graph.NodeID(int32(binary.LittleEndian.Uint32(ids[4*i:])))
			}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(r); err != nil {
			t.Fatal(err)
		}
		if got := appendQueryResponse(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendQueryResponse\n%q\njson.Encoder\n%q", got, want.Bytes())
		}
	})
}

// writeQueryResponse leaves the response exactly as writeJSON does: status,
// every header, body. A reused pooled buffer must not leak a previous body.
func TestWriteQueryResponseMatchesWriteJSON(t *testing.T) {
	for _, r := range []QueryResponse{
		{Query: strings.Repeat("//a", 3000), Canonical: "//a", Answer: make([]graph.NodeID, 20000)},
		{Query: "//a/b", Canonical: "//a/b", Answers: 3, Precise: true, Micros: 9},
		{Query: "<&>", Canonical: "//<&>", Answer: []graph.NodeID{}, Coalesced: true},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeQueryResponse(got, &r)
		writeJSON(want, http.StatusOK, r)
		if got.Code != want.Code || !equalHeaders(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("writeQueryResponse: %d %v %q\nwriteJSON: %d %v %q", got.Code, got.Header(), got.Body.Bytes(),
				want.Code, want.Header(), want.Body.Bytes())
		}
	}
}
