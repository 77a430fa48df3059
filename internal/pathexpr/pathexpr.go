// Package pathexpr models the simple path expressions of the paper: label
// paths, optionally prefixed with the self-or-descendant axis (//), with
// XPath-style wildcard steps. Beyond the paper it also supports the
// descendant axis between steps (//a//b, matched through one or more edges
// and therefore never precise on a finite-k index) and branching
// expressions p[q] (ParseBranching).
//
// Following the paper's convention (§5), the length of a path expression is
// its number of edges: length(l0/l1/…/ln) = n. A descendant expression
// //l0/…/ln matches any data node that terminates a node path whose labels
// are l0…ln, anywhere in the graph. A rooted expression /l0/…/ln anchors
// l0 at the children of the distinguished root node.
package pathexpr

import (
	"errors"
	"fmt"
	"strings"
)

// Step is one step of a path expression: either a literal label or the
// wildcard *.
type Step struct {
	Label    string
	Wildcard bool
	// Descendant marks a step reached through the descendant axis (//):
	// one or more edges instead of exactly one. Expressions containing a
	// mid-path descendant step match node paths of unbounded length, so no
	// finite local similarity makes them precise (RequiredK reports
	// Unbounded) and they are not usable as FUPs.
	Descendant bool
}

// Matches reports whether the step accepts a label.
func (s Step) Matches(label string) bool { return s.Wildcard || s.Label == label }

func (s Step) String() string {
	name := s.Label
	if s.Wildcard {
		name = "*"
	}
	if s.Descendant {
		return "/" + name // rendered after the joining slash: a//b
	}
	return name
}

// Expr is a parsed simple path expression.
type Expr struct {
	// Rooted is true for /a/b (anchored at the root's children) and false
	// for //a/b (descendant-anchored).
	Rooted bool
	Steps  []Step
}

// Length returns the number of edges in any node path matching the
// expression body: len(Steps)-1. The paper's precision criterion compares
// this length against index-node local similarity; for rooted expressions
// the extra root edge is accounted for by RequiredK.
func (e *Expr) Length() int { return len(e.Steps) - 1 }

// Unbounded is returned by RequiredK for expressions no finite local
// similarity can make precise (those with a mid-path descendant axis).
const Unbounded = int(^uint(0) >> 1)

// RequiredK returns the local similarity an index node must have for the
// expression to be answered precisely from the index: Length() for
// descendant expressions, Length()+1 for rooted ones (the incoming label
// path includes the root label), and Unbounded when a mid-path descendant
// axis makes the matched node paths arbitrarily long.
func (e *Expr) RequiredK() int {
	if e.HasDescendantStep() {
		return Unbounded
	}
	if e.Rooted {
		return e.Length() + 1
	}
	return e.Length()
}

// HasDescendantStep reports whether any step after the first uses the
// descendant axis (//a//b).
func (e *Expr) HasDescendantStep() bool {
	for _, s := range e.Steps {
		if s.Descendant {
			return true
		}
	}
	return false
}

// HasWildcard reports whether any step is a wildcard.
func (e *Expr) HasWildcard() bool {
	for _, s := range e.Steps {
		if s.Wildcard {
			return true
		}
	}
	return false
}

// String renders the expression in XPath-like syntax.
func (e *Expr) String() string {
	var b strings.Builder
	if e.Rooted {
		b.WriteString("/")
	} else {
		b.WriteString("//")
	}
	for i, s := range e.Steps {
		if i > 0 {
			b.WriteString("/")
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Parse parses a simple path expression: "/a/b", "//a/*/c", "//name".
// Labels may contain any characters except '/' and whitespace.
func Parse(s string) (*Expr, error) {
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
		return nil, syntaxError("pathexpr: no steps in %q", orig)
	}
	// Every step is one slash-separated segment, so the slash count bounds
	// the step count and Steps is allocated once.
	e.Steps = make([]Step, 0, strings.Count(s, "/")+1)
	descendant := false
	for more := true; more; {
		var part string
		part, s, more = strings.Cut(s, "/")
		if part == "" {
			// An empty segment between two labels encodes the descendant
			// axis: a//b splits into "a", "", "b". The first step cannot be
			// preceded by one (that slash belonged to the prefix).
			if len(e.Steps) == 0 || descendant {
				return nil, syntaxError("pathexpr: empty step in %q", orig)
			}
			descendant = true
			continue
		}
		if strings.ContainsAny(part, " \t\n") {
			return nil, syntaxError("pathexpr: whitespace in step %q", part)
		}
		step := Step{Label: part, Descendant: descendant}
		if part == "*" {
			step = Step{Wildcard: true, Descendant: descendant}
		}
		descendant = false
		e.Steps = append(e.Steps, step)
	}
	if descendant {
		return nil, syntaxError("pathexpr: trailing slash in %q", orig)
	}
	return e, nil
}

// syntaxError is the error Parse returns for a rejected expression.
//
//mrx:coldpath a rejected expression ends its request with a 400; formatting its message is not the served path
func syntaxError(format, s string) error {
	return fmt.Errorf(format, s)
}

// FromLabels builds a descendant-anchored expression from a label sequence.
func FromLabels(labels []string) *Expr {
	e := &Expr{}
	for _, l := range labels {
		e.Steps = append(e.Steps, Step{Label: l})
	}
	return e
}

// Labels returns the label sequence of a wildcard-free expression.
func (e *Expr) Labels() []string {
	out := make([]string, len(e.Steps))
	for i, s := range e.Steps {
		out[i] = s.String()
	}
	return out
}

// Prefix returns the descendant-anchored prefix expression consisting of the
// first n+1 steps (a path of length n). Prefix(e.Length()) equals e for
// descendant expressions.
func (e *Expr) Prefix(n int) *Expr {
	return &Expr{Rooted: e.Rooted, Steps: e.Steps[:n+1]}
}

// Suffix returns the descendant-anchored suffix expression of length n
// (the last n+1 steps).
func (e *Expr) Suffix(n int) *Expr {
	return &Expr{Steps: e.Steps[len(e.Steps)-n-1:]}
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e.Rooted != o.Rooted || len(e.Steps) != len(o.Steps) {
		return false
	}
	for i := range e.Steps {
		if e.Steps[i] != o.Steps[i] {
			return false
		}
	}
	return true
}

// ParseBranching parses a branching path expression of the form p[q]:
// a simple path expression p with one trailing predicate q, as in
// //open_auction[bidder/personref]. It returns the incoming expression p
// and the outgoing expression implied by the predicate: q is relative to
// the node matched by p, so the returned out expression starts with p's
// final step followed by q's steps. The predicate may itself use the
// descendant axis (//person[watches//open_auction]).
func ParseBranching(s string) (in, out *Expr, err error) {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return nil, nil, fmt.Errorf("pathexpr: %q is not a branching expression p[q]", s)
	}
	in, err = Parse(s[:open])
	if err != nil {
		return nil, nil, err
	}
	inner := s[open+1 : len(s)-1]
	if inner == "" {
		return nil, nil, fmt.Errorf("pathexpr: empty predicate in %q", s)
	}
	// The predicate is relative to the matched node: normalize "q" and
	// "//q" alike, remembering whether the first predicate step descends
	// directly or through the descendant axis.
	firstDescendant := false
	if strings.HasPrefix(inner, "//") {
		firstDescendant = true
		inner = inner[2:]
	} else {
		inner = strings.TrimPrefix(inner, "/")
	}
	q, err := Parse("//" + inner)
	if err != nil {
		return nil, nil, err
	}
	last := in.Steps[len(in.Steps)-1]
	steps := make([]Step, 0, len(q.Steps)+1)
	steps = append(steps, Step{Label: last.Label, Wildcard: last.Wildcard})
	for i, st := range q.Steps {
		if i == 0 {
			st.Descendant = firstDescendant
		}
		steps = append(steps, st)
	}
	return in, &Expr{Steps: steps}, nil
}
