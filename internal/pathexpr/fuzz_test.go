package pathexpr

import (
	"strings"
	"testing"
)

// FuzzParse checks that parsing never panics, that it accepts and rejects
// exactly what the split-based reference parser does (same expression, same
// error), and that every accepted expression round-trips: String() renders
// a canonical form that re-parses to a structurally equal expression with
// consistent derived properties.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"//a/b", "/a/b/c", "a/b", "//a/*/c", "/*", "//*", "a//b",
		"/a//b//c", "//name", "l0/l1/l2", "//open_auction/bidder",
		"//a[b/c]", "/x[y]", "//person[watches//open_auction]",
		"", "/", "//", "a//", "//a//", "* /", "a b",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		ref, refErr := parseSplit(s)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("Parse(%q) error %v, reference %v", s, err, refErr)
		case err != nil && err.Error() != refErr.Error():
			t.Fatalf("Parse(%q) error %q, reference %q", s, err, refErr)
		case err == nil && (!e.Equal(ref) || len(e.Steps) != len(ref.Steps)):
			t.Fatalf("Parse(%q) = %v, reference %v", s, e, ref)
		}
		if err != nil {
			if e != nil {
				t.Fatalf("Parse(%q) returned both an expression and error %v", s, err)
			}
		} else {
			checkParsed(t, s, e)
		}
		// ParseBranching must be equally panic-free on arbitrary input.
		if in, out, err := ParseBranching(s); err == nil {
			checkParsed(t, s, in)
			checkParsed(t, s, out)
		}
	})
}

func checkParsed(t *testing.T, orig string, e *Expr) {
	t.Helper()
	if len(e.Steps) == 0 {
		t.Fatalf("Parse(%q) accepted an expression with no steps", orig)
	}
	if e.Steps[0].Descendant {
		t.Fatalf("Parse(%q): first step marked descendant", orig)
	}
	for _, st := range e.Steps {
		if st.Wildcard && st.Label != "" {
			t.Fatalf("Parse(%q): wildcard step carries label %q", orig, st.Label)
		}
		if !st.Wildcard && (st.Label == "" || strings.ContainsAny(st.Label, "/ \t\n")) {
			t.Fatalf("Parse(%q): malformed step label %q", orig, st.Label)
		}
	}
	canon := e.String()
	e2, err := Parse(canon)
	if err != nil {
		t.Fatalf("round-trip: Parse(%q) -> %q failed to re-parse: %v", orig, canon, err)
	}
	if !e.Equal(e2) {
		t.Fatalf("round-trip: %q -> %q parsed to a different expression", orig, canon)
	}
	if canon2 := e2.String(); canon2 != canon {
		t.Fatalf("String not canonical: %q -> %q", canon, canon2)
	}
	switch {
	case e.HasDescendantStep():
		if e.RequiredK() != Unbounded {
			t.Fatalf("%q: descendant-axis expression with finite RequiredK %d", canon, e.RequiredK())
		}
	case e.Rooted:
		if e.RequiredK() != e.Length()+1 {
			t.Fatalf("%q: rooted RequiredK %d, want %d", canon, e.RequiredK(), e.Length()+1)
		}
	default:
		if e.RequiredK() != e.Length() {
			t.Fatalf("%q: RequiredK %d, want %d", canon, e.RequiredK(), e.Length())
		}
	}
}
