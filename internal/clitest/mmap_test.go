package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// snapFiles builds (once per run) a binary graph file plus a published,
// refined snapshot of the standard tiny xmark dataset, via the real mrsnap
// binary.
func snapFiles(t *testing.T) (graphPath, snapPath string) {
	t.Helper()
	bin(t, "mrsnap") // binDir is set by the first build; don't write beside the sources
	graphPath = filepath.Join(binDir, "mmap-graph.bin")
	snapPath = filepath.Join(binDir, "mmap-snap.mrx")
	if _, err := os.Stat(snapPath); err != nil {
		out := run(t, false, "mrsnap", "-dataset", "xmark", "-scale", "0.02", "-seed", "7",
			"-refine", "//open_auction/bidder/personref,//person/name",
			"-o", snapPath, "-graph-out", graphPath)
		if !strings.Contains(out, "published") {
			t.Fatalf("mrsnap did not report a publish:\n%s", out)
		}
	}
	return graphPath, snapPath
}

// TestMmapSmoke is the mmap-smoke make target: publish a snapshot with
// mrsnap, verify it with mrsnap -verify, then serve it read-only through
// mrserve -index-file (both verified and trusted open) and require a clean
// mrload -check against ground truth.
func TestMmapSmoke(t *testing.T) {
	graphPath, snapPath := snapFiles(t)

	// Full verification must pass on the file we just published.
	out := run(t, false, "mrsnap", "-graph", graphPath, "-verify", snapPath)
	if !strings.Contains(out, "OK") {
		t.Fatalf("mrsnap -verify did not report OK:\n%s", out)
	}
	// ...and say what the check covered and cost.
	if !regexp.MustCompile(`\d+ components, \d+ sections checksummed, \d+ bytes, verified in \d`).MatchString(out) {
		t.Fatalf("mrsnap -verify did not report what it verified:\n%s", out)
	}

	// A snapshot must be rejected when bound to the wrong graph.
	wrongGraph := filepath.Join(binDir, "mmap-wrong-graph.bin")
	if _, err := os.Stat(wrongGraph); err != nil {
		run(t, false, "mrsnap", "-dataset", "xmark", "-scale", "0.02", "-seed", "8",
			"-o", filepath.Join(binDir, "mmap-wrong.mrx"), "-graph-out", wrongGraph)
	}
	run(t, true, "mrsnap", "-graph", wrongGraph, "-verify", snapPath)

	for _, mode := range []struct {
		name string
		args []string
	}{
		{"verified", nil},
		{"trusted", []string{"-trust-index"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			args := append([]string{"-graph", graphPath, "-index-file", snapPath}, mode.args...)
			addr, stop := startServe(t, args...)
			// mrload regenerates the same dataset for its query workload and
			// -check ground truth, so a clean check proves the mapped
			// snapshot answers exactly like a built-from-scratch index.
			out := run(t, false, "mrload", "-addr", addr, "-dataset", "xmark",
				"-scale", "0.02", "-seed", "7", "-qps", "80", "-duration", "1s",
				"-queries", "30", "-check")
			if !strings.Contains(out, "check passed") {
				t.Fatalf("mrload -check against the mapped snapshot did not pass:\n%s", out)
			}
			serverOut := stop()
			if !strings.Contains(serverOut, "mapped") {
				t.Errorf("mrserve never reported mapping the snapshot:\n%s", serverOut)
			}
		})
	}
}

// TestMmapPublishAtomicUnderKill SIGKILLs mrsnap in the middle of a paced
// republish and proves the temp+rename protocol never exposes a torn file:
// the previously published snapshot must be byte-identical afterwards and
// must still pass full verification.
func TestMmapPublishAtomicUnderKill(t *testing.T) {
	graphPath, snapPath := snapFiles(t)
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	// -pace sleeps before every section payload, holding the temp file open
	// long enough to kill the writer mid-file deterministically.
	cmd := exec.Command(bin(t, "mrsnap"), "-graph", graphPath,
		"-refine", "//open_auction/bidder/personref,//person/name",
		"-pace", "200ms", "-o", snapPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(snapPath)
	pattern := filepath.Join(dir, filepath.Base(snapPath)+".tmp-*")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, _ := filepath.Glob(pattern); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("mrsnap never created a temp file")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// The published file is untouched — the half-written temp never reached
	// the target name. (The orphaned temp file itself is expected: a killed
	// process cannot clean up; a janitor or fresh publish would.)
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("killing a mid-write publish changed the published snapshot")
	}
	out := run(t, false, "mrsnap", "-graph", graphPath, "-verify", snapPath)
	if !strings.Contains(out, "OK") {
		t.Fatalf("snapshot no longer verifies after a killed republish:\n%s", out)
	}
	for _, m := range mustGlob(t, pattern) {
		_ = os.Remove(m) // leave binDir clean for the other tests
	}
}

func mustGlob(t *testing.T, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
