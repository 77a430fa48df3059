package store

import (
	"bytes"
	"errors"

	"math/rand"
	"testing"

	"mrx/internal/gtest"
)

// Every strict prefix of a serialized graph must fail to load with an
// error, never a panic.
func TestTruncatedInputsError(t *testing.T) {
	g := gtest.Random(6, 80, 4, 0.2)
	var gb bytes.Buffer
	if err := WriteGraph(&gb, g); err != nil {
		t.Fatal(err)
	}
	data := gb.Bytes()
	step := len(data)/120 + 1
	for cut := 0; cut < len(data); cut += step {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at cut %d: %v", cut, r)
				}
			}()
			if _, err := ReadGraph(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(data))
			}
		}()
	}
	if _, err := ReadGraph(bytes.NewReader(data)); err != nil {
		t.Fatalf("full data rejected: %v", err)
	}
}

// Random single-byte corruption must never panic: either an error or a
// well-formed (if different) result.
func TestCorruptedInputsNoPanic(t *testing.T) {
	g := gtest.Random(9, 60, 3, 0.2)
	var gb bytes.Buffer
	if err := WriteGraph(&gb, g); err != nil {
		t.Fatal(err)
	}
	data := gb.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		corrupt := append([]byte(nil), data...)
		pos := rng.Intn(len(corrupt))
		corrupt[pos] ^= byte(1 + rng.Intn(255))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corruption at byte %d: %v", pos, r)
				}
			}()
			g2, err := ReadGraph(bytes.NewReader(corrupt))
			if err == nil && g2.NumNodes() == 0 {
				t.Fatal("corrupted read produced empty graph without error")
			}
		}()
	}
}

// failWriter errors after n bytes, covering every write error path.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errors.New("disk full")
	}
	f.left -= len(p)
	return len(p), nil
}

func TestWriteFailuresPropagate(t *testing.T) {
	g := gtest.Random(12, 60, 3, 0.2)

	check := func(name string, write func(w *failWriter) error) {
		cw := &failWriter{left: 1 << 30}
		if err := write(cw); err != nil {
			t.Fatalf("%s: unconstrained write failed: %v", name, err)
		}
		size := 1<<30 - cw.left
		for _, budget := range []int{0, 1, 3, size / 2, size - 1} {
			if err := write(&failWriter{left: budget}); err == nil {
				t.Errorf("%s with %d-byte budget (of %d) succeeded", name, budget, size)
			}
		}
	}
	check("WriteGraph", func(w *failWriter) error { return WriteGraph(w, g) })
}

func TestStringSanityLimit(t *testing.T) {
	// A graph header claiming a gigantic label must be rejected, not
	// allocated.
	var buf bytes.Buffer
	buf.WriteString(graphMagic)
	buf.Write([]byte{1})                            // one label
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // absurd length
	if _, err := ReadGraph(&buf); err == nil {
		t.Fatal("absurd label length accepted")
	}
}
