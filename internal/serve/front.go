package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
)

// scanQuery returns what url.ParseQuery(rawQuery) followed by Get("q") and
// Get("answers") returns, without building the url.Values map. It follows
// ParseQuery's loop pair by pair: a pair containing ';' is dropped, an
// empty pair is skipped, a key without '=' has the empty value, and a pair
// whose key or value fails to unescape is dropped, so the next pair with
// the same key is the one Get would see. Only a key or value holding '%' or
// '+' is unescaped (and copied); every other result is a substring of
// rawQuery.
func scanQuery(rawQuery string) (q, answers string) {
	haveQ, haveAnswers := false, false
	for rawQuery != "" && !(haveQ && haveAnswers) {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		switch {
		case key == "q" && !haveQ:
			q, haveQ = queryUnescape(value)
		case key == "answers" && !haveAnswers:
			answers, haveAnswers = queryUnescape(value)
		}
	}
	return q, answers
}

// queryUnescape is url.QueryUnescape that allocates only when s holds an
// escape. ok is false, and the result empty, when s does not unescape.
func queryUnescape(s string) (string, bool) {
	if strings.IndexAny(s, "%+") < 0 {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// jsonContentType is the Content-Type of a /query answer. It is shared by
// every response so setting the header allocates nothing; net/http only
// reads header values, and Header.Add would copy it (its cap is its len).
var jsonContentType = []string{"application/json"}

// allowGET is the Allow header of a 405 /query answer (RFC 9110 §15.5.6),
// shared the same way as jsonContentType.
var allowGET = []string{http.MethodGet}

// maxPooledResponse bounds the response buffers kept for reuse, so one
// answers=1 reply with millions of ids does not stay resident.
const maxPooledResponse = 64 << 10

var responseBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// writeQueryResponse writes a successful /query answer with one Write call,
// byte for byte what writeJSON(w, http.StatusOK, *resp) writes.
func writeQueryResponse(w http.ResponseWriter, resp *QueryResponse) {
	bp := responseBufs.Get().(*[]byte)
	buf := appendQueryResponse((*bp)[:0], resp)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	// A mid-body network error is the client's loss, as in writeJSON.
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledResponse {
		*bp = buf
		responseBufs.Put(bp)
	}
}

// appendQueryResponse appends the JSON encoding of r, as json.Encoder
// writes it (fields in declaration order, answer omitted when empty,
// trailing newline), to dst.
func appendQueryResponse(dst []byte, r *QueryResponse) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, r.Query)
	dst = append(dst, `,"canonical":`...)
	dst = appendJSONString(dst, r.Canonical)
	dst = append(dst, `,"answers":`...)
	dst = strconv.AppendInt(dst, int64(r.Answers), 10)
	if len(r.Answer) > 0 {
		dst = append(dst, `,"answer":[`...)
		for i, id := range r.Answer {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(id), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"index_cost":`...)
	dst = strconv.AppendInt(dst, int64(r.IndexCost), 10)
	dst = append(dst, `,"data_cost":`...)
	dst = strconv.AppendInt(dst, int64(r.DataCost), 10)
	dst = append(dst, `,"precise":`...)
	dst = strconv.AppendBool(dst, r.Precise)
	dst = append(dst, `,"coalesced":`...)
	dst = strconv.AppendBool(dst, r.Coalesced)
	dst = append(dst, `,"micros":`...)
	dst = strconv.AppendInt(dst, r.Micros, 10)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string. A string of printable ASCII
// with nothing to escape is copied as is; any other goes through
// encoding/json, which owns the HTML-escaping, invalid-UTF-8 and
// U+2028/U+2029 rules the default encoder applies.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return appendJSONStringSlow(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

//mrx:coldpath a string that needs escaping is rare in a path expression; encoding/json keeps its output exact
func appendJSONStringSlow(dst []byte, s string) []byte {
	// Marshalling a string cannot fail.
	b, _ := json.Marshal(s)
	return append(dst, b...)
}
