// Package clitest smoke-tests the command-line binaries end to end: each
// test execs a freshly built binary the way a user would, so flag parsing,
// stdin/stdout wiring and exit codes are covered — things unit tests of the
// libraries underneath cannot see. Skipped with -short (builds cost seconds).
package clitest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// bin builds (once) and returns the path of the named command's binary.
func bin(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("exec smoke tests skipped in -short mode")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "mrx-clitest-*")
		if buildErr != nil {
			return
		}
		for _, n := range []string{"mrgen", "mrquery", "mrbench", "mrserve", "mrload", "mrsnap"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, n), "mrx/cmd/"+n)
			cmd.Dir = moduleRoot()
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = fmt.Errorf("build %s: %v\n%s", n, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

func moduleRoot() string {
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd))
}

// run executes a built binary and returns combined output, failing on a
// non-zero exit unless wantErr.
func run(t *testing.T, wantErr bool, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin(t, name), args...)
	out, err := cmd.CombinedOutput()
	if wantErr && err == nil {
		t.Fatalf("%s %v: expected failure, got success:\n%s", name, args, out)
	}
	if !wantErr && err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// tinyXML generates a small XMark document once per test run.
func tinyXML(t *testing.T) string {
	t.Helper()
	path := filepath.Join(binDir, "tiny.xml")
	if _, err := os.Stat(path); err != nil {
		run(t, false, "mrgen", "-dataset", "xmark", "-scale", "0.01", "-seed", "7", "-o", path)
	}
	return path
}

func TestMRGenStats(t *testing.T) {
	out := run(t, false, "mrgen", "-dataset", "nasa", "-scale", "0.01", "-stats")
	for _, want := range []string{"nodes", "edges"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// Every index flavor must serve the same query through the CLI and agree on
// the answer count — a coarse end-to-end echo of the differential suite.
func TestMRQueryAllIndexesAgree(t *testing.T) {
	xml := tinyXML(t)
	re := regexp.MustCompile(`: (\d+) answers`)
	counts := map[string]string{}
	for _, tc := range [][]string{
		{"-index", "a2"},
		{"-index", "a0"},
		{"-index", "1index"},
		{"-index", "dk"},
		{"-index", "dkpromote", "-refine"},
		{"-index", "mk", "-refine"},
		{"-index", "mstar", "-refine"},
		{"-index", "ud2,2"},
		{"-index", "engine", "-refine", "-stats", "-parallel", "2"},
		{"-index", "engine", "-autotune", "-epochs", "3", "-stats"},
	} {
		args := append([]string{"-in", xml}, tc...)
		args = append(args, "//person/name")
		out := run(t, false, "mrquery", args...)
		m := re.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%v: no answer count in output:\n%s", tc, out)
		}
		counts[strings.Join(tc, " ")] = m[1]
	}
	var first string
	for _, v := range counts {
		first = v
		break
	}
	for _, v := range counts {
		if v != first {
			t.Fatalf("answer counts diverge across indexes: %v", counts)
		}
	}
}

func TestMRQueryStdinAndAnswers(t *testing.T) {
	xml := tinyXML(t)
	data, err := os.ReadFile(xml)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin(t, "mrquery"), "-index", "mstar", "-refine",
		"-answers", "-max-answers", "5", "//person/name")
	cmd.Stdin = strings.NewReader(string(data))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("stdin run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "answers") {
		t.Errorf("missing answer summary:\n%s", out)
	}
}

func TestMRQueryBadUsage(t *testing.T) {
	xml := tinyXML(t)
	run(t, true, "mrquery", "-in", xml, "-index", "a2") // no query args
	run(t, true, "mrquery", "-in", xml, "-index", "nosuch", "//a")
	run(t, true, "mrquery", "-in", xml, "-index", "a2", "//bad[")
	run(t, true, "mrquery", "-in", filepath.Join(binDir, "missing.xml"), "//a")
}

func TestMRBenchList(t *testing.T) {
	out := run(t, false, "mrbench", "-list")
	if !strings.Contains(out, "fig") {
		t.Errorf("figure list missing entries:\n%s", out)
	}
}

func TestMRBenchStrategiesAblation(t *testing.T) {
	out := run(t, false, "mrbench", "-ablation", "strategies",
		"-scale", "0.01", "-queries", "8", "-maxlen", "3", "-q")
	for _, want := range []string{"top-down", "bottom-up", "auto"} {
		if !strings.Contains(out, want) {
			t.Errorf("strategies table missing %q:\n%s", want, out)
		}
	}
}

func TestMRBenchBadUsage(t *testing.T) {
	run(t, true, "mrbench", "-fig", "notanumber")
	// engine, adapt, shard and mmap are serving layers: Go benchmarks and
	// bench/ measure them, not mrbench.
	for _, name := range []string{"nosuch", "engine", "adapt", "shard", "mmap"} {
		run(t, true, "mrbench", "-ablation", name, "-scale", "0.01", "-queries", "1")
	}
}
