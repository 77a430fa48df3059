package pathexpr

import (
	"errors"
	"fmt"
	"strings"
)

// parseSplit is Parse as it was written before it stopped splitting the
// input: kept verbatim as the reference FuzzParse compares Parse against.
func parseSplit(s string) (*Expr, error) {
	orig := s
	if s == "" {
		return nil, errors.New("pathexpr: empty expression")
	}
	e := &Expr{Rooted: true}
	if strings.HasPrefix(s, "//") {
		e.Rooted = false
		s = s[2:]
	} else if strings.HasPrefix(s, "/") {
		s = s[1:]
	} else {
		// A bare label path is treated as descendant-anchored, matching the
		// paper's usage ("r/a/b" denotes the label path).
		e.Rooted = false
	}
	if s == "" {
		return nil, fmt.Errorf("pathexpr: no steps in %q", orig)
	}
	parts := strings.Split(s, "/")
	descendant := false
	for _, part := range parts {
		if part == "" {
			// An empty segment between two labels encodes the descendant
			// axis: a//b splits into ["a", "", "b"]. The first step cannot
			// be preceded by one (that slash belonged to the prefix).
			if len(e.Steps) == 0 || descendant {
				return nil, fmt.Errorf("pathexpr: empty step in %q", orig)
			}
			descendant = true
			continue
		}
		if strings.ContainsAny(part, " \t\n") {
			return nil, fmt.Errorf("pathexpr: whitespace in step %q", part)
		}
		step := Step{Label: part, Descendant: descendant}
		if part == "*" {
			step = Step{Wildcard: true, Descendant: descendant}
		}
		descendant = false
		e.Steps = append(e.Steps, step)
	}
	if descendant {
		return nil, fmt.Errorf("pathexpr: trailing slash in %q", orig)
	}
	return e, nil
}
