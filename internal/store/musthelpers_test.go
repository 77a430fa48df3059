package store

import (
	"mrx/internal/graph"
)

// mustFreeze freezes a builder whose contents the test controls.
func mustFreeze(b *graph.Builder) *graph.Graph {
	g, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return g
}
