package main

import (
	"context"
	"io"
	"testing"

	"mrx/internal/graph"
	"mrx/internal/pathexpr"
	"mrx/internal/query"
)

// wrongQuerier answers like the engine it wraps, except that it corrupts
// every non-empty answer: it either drops the last node or replaces it with
// a node that is not in the answer.
type wrongQuerier struct {
	inner query.ContextQuerier
	drop  bool
}

func (w wrongQuerier) QueryCtx(ctx context.Context, e *pathexpr.Expr) (query.Result, error) {
	res, err := w.inner.QueryCtx(ctx, e)
	if err != nil || len(res.Answer) == 0 {
		return res, err
	}
	ans := append([]graph.NodeID(nil), res.Answer...)
	if w.drop {
		ans = ans[:len(ans)-1]
	} else {
		ans[len(ans)-1]++ // answers are sorted, so max+1 is not among them
	}
	res.Answer = ans
	return res, nil
}

func TestOracleCatchesWrongAnswers(t *testing.T) {
	p, err := prepare(smoke(specByName("cold_validate")), 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := genGraph(p.sp)
	if err != nil {
		t.Fatal(err)
	}
	be, err := newBackend(p.sp, g, "")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	nonEmpty := 0
	for _, w := range p.want {
		if len(w) > 0 {
			nonEmpty++
		}
	}

	for _, tc := range []struct {
		name           string
		q              query.ContextQuerier
		timed, idCheck bool // which check must trip
	}{
		{"honest engine", be, false, false},
		{"drops an answer", wrongQuerier{be, true}, true, true},
		{"same count, wrong node", wrongQuerier{be, false}, false, true},
	} {
		sys, err := serveQuerier(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		ph := sys.runPhase(p, phaseOpts{count: int64(p.seq.round)})
		_, failed, _ := sys.fullCheck(p)
		sys.close()
		if (ph.failed > 0) != tc.timed {
			t.Errorf("%s: %d of %d timed requests failed the count check", tc.name, ph.failed, ph.attempted)
		}
		if tc.idCheck && failed != int64(nonEmpty) {
			t.Errorf("%s: id-set check failed %d queries, want all %d non-empty ones", tc.name, failed, nonEmpty)
		}
		if !tc.idCheck && failed != 0 {
			t.Errorf("%s: id-set check failed %d queries", tc.name, failed)
		}
		// A failed operation makes the run incorrect, which main turns into
		// a non-zero exit.
		tl := &tally{log: io.Discard}
		tl.add("timed", ph.attempted, ph.failed)
		tl.add("id-sets", int64(len(p.queries)), failed)
		res, err := tl.result(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct != !(tc.timed || tc.idCheck) {
			t.Errorf("%s: run reported correct=%v", tc.name, res.Correct)
		}
	}
}

func TestParseReply(t *testing.T) {
	body := []byte(`{"query":"//a","canonical":"//a","answers":12,"index_cost":3,"data_cost":40,"precise":false,"coalesced":false,"micros":7}`)
	rep, ok := parseReply(body)
	if !ok || rep != (reply{12, 3, 40}) {
		t.Errorf("parseReply = %+v, %v", rep, ok)
	}
	if _, ok := parseReply([]byte(`{"error":"shed"}`)); ok {
		t.Error("an error body parsed as a reply")
	}
}
