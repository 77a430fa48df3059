package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"

	"mrx/internal/graph"
	"mrx/internal/serve"
)

// reply is what a timed request keeps of a /query response.
type reply struct {
	answers, indexCost, dataCost int
}

// parseReply extracts the three counts from a /query JSON body without a
// decoder, so the client's own cost per request stays small and constant.
// The fields follow the echoed query text, so the last occurrence of a key
// is the real one.
func parseReply(body []byte) (reply, bool) {
	var r reply
	var ok [3]bool
	r.answers, ok[0] = intField(body, `"answers":`)
	r.indexCost, ok[1] = intField(body, `"index_cost":`)
	r.dataCost, ok[2] = intField(body, `"data_cost":`)
	return r, ok[0] && ok[1] && ok[2]
}

func intField(body []byte, key string) (int, bool) {
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	return n, digits > 0
}

func queryURL(base, q string, withAnswers bool) string {
	u := base + "/query?q=" + url.QueryEscape(q)
	if withAnswers {
		u += "&answers=1"
	}
	return u
}

// sameIDs reports whether got and want hold the same node set.
func sameIDs(got, want []graph.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		got = append([]graph.NodeID(nil), got...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// fullCheck asks the server for the whole answer set of every distinct
// query (answers=1) and compares it id by id with the oracle. It returns
// the number of queries attempted and the number that failed; the first
// few failures are described in the returned slice.
func (s *system) fullCheck(p *prepared) (attempted, failed int64, notes []string) {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	for id, q := range p.queries {
		attempted++
		err := func() error {
			resp, err := c.Get(queryURL(s.base, q, true))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			var qr serve.QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				return fmt.Errorf("decoding: %w", err)
			}
			if qr.Answers != len(p.want[id]) {
				return fmt.Errorf("%d answers, want %d", qr.Answers, len(p.want[id]))
			}
			if !sameIDs(qr.Answer, p.want[id]) {
				return fmt.Errorf("answer set differs from the oracle's")
			}
			return nil
		}()
		if err != nil {
			failed++
			if len(notes) < 5 {
				notes = append(notes, fmt.Sprintf("%s: %v", q, err))
			}
		}
	}
	return attempted, failed, notes
}
