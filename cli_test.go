// End-to-end tests of the wsnenergy command, exercised exactly the way a
// user would run it.
package repro_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	binOnce sync.Once
	binDir  string
	binPath string
	binErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// wsnenergyBinary compiles the real binary once per test run. Tests exec
// it directly rather than through `go run`, which would put a wrapper
// process between the test and the command, so SIGKILL on the child would
// orphan the actual victim instead of killing it.
func wsnenergyBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "wsnenergy-test-"); binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "wsnenergy")
		cmd := exec.Command("go", "build", "-o", binPath, "./cmd/wsnenergy")
		if out, err := cmd.CombinedOutput(); err != nil {
			binErr = fmt.Errorf("building wsnenergy: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// runCLI runs `wsnenergy args...` and returns stdout.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(wsnenergyBinary(t), args...).Output()
	if err != nil {
		stderr := ""
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = string(ee.Stderr)
		}
		t.Fatalf("wsnenergy %v failed: %v\n%s", args, err, stderr)
	}
	return string(out)
}

// runCLIExpectError runs wsnenergy, asserts a non-zero exit, and returns
// the combined output.
func runCLIExpectError(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(wsnenergyBinary(t), args...).CombinedOutput()
	if err == nil {
		t.Fatalf("wsnenergy %v unexpectedly succeeded:\n%s", args, out)
	}
	return string(out)
}

func TestWsnenergyTable3(t *testing.T) {
	out := runCLI(t, "-experiment", "table3")
	for _, want := range []string{"PXA271", "17.000", "192.442"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestWsnenergyTable4ReducedCSV(t *testing.T) {
	out := runCLI(t, "-experiment", "table4",
		"-simtime", "100", "-reps", "2", "-format", "csv")
	if !strings.Contains(out, "Power Up Delay (sec)") {
		t.Fatalf("table4 CSV missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 PUD rows
		t.Fatalf("table4 CSV has %d lines, want 4:\n%s", len(lines), out)
	}
}

// TestWsnenergyHelpListsEveryExperiment: the -experiment usage names every
// artifact -experiment all regenerates.
func TestWsnenergyHelpListsEveryExperiment(t *testing.T) {
	out, err := exec.Command(wsnenergyBinary(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("wsnenergy -h: %v\n%s", err, out)
	}
	for _, name := range []string{"table1", "table2", "table3", "fig4", "fig5", "table4", "table5",
		"erlang", "policy", "workload", "ctmc", "lifetime", "convergence", "transient", "network",
		"fieldlife", "fieldbreakdown", "fielddeath"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("wsnenergy -h does not name experiment %q:\n%s", name, out)
		}
	}
}

func TestWsnenergyUnknownExperiment(t *testing.T) {
	out := runCLIExpectError(t, "-experiment", "nope")
	if !strings.Contains(out, "unknown experiment") {
		t.Fatalf("missing error message:\n%s", out)
	}
}

// TestWsnenergyRejectsUnknownSubcommand: a word the subcommand switch does
// not know — a typo, or `shard`, which serve/work/sweep cover — fails
// loudly instead of running the whole experiment suite.
func TestWsnenergyRejectsUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"shard", "plan", "-experiment", "table4", "-shards", "2"},
	} {
		out := runCLIExpectError(t, args...)
		for _, want := range []string{`unknown subcommand "` + args[0] + `"`, "grid", "petri"} {
			if !strings.Contains(out, want) {
				t.Fatalf("wsnenergy %v: missing %q:\n%s", args, want, out)
			}
		}
	}
}

// TestWsnenergyRejectsStrayArgument: a positional argument after the flags
// is an error, not silently dropped, at the top level and in a subcommand.
func TestWsnenergyRejectsStrayArgument(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "table3", "extra"}, `unknown subcommand "extra"`},
		{[]string{"field", "-nodes", "5", "extra"}, `field: unexpected argument "extra"`},
		{[]string{"grid", "-pdts", "0", "extra"}, `grid: unexpected argument "extra"`},
	} {
		out := runCLIExpectError(t, tc.args...)
		if !strings.Contains(out, tc.want) {
			t.Fatalf("wsnenergy %v: missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestWsnenergySweepRejectsNonGridExperiment: only the grid artifacts can
// be submitted to the sweep service; the client refuses the rest before it
// contacts the coordinator.
func TestWsnenergySweepRejectsNonGridExperiment(t *testing.T) {
	out := runCLIExpectError(t, "sweep", "-join", "http://127.0.0.1:1", "-experiment", "table1")
	if !strings.Contains(out, "not a shardable sweep") {
		t.Fatalf("missing shardability error:\n%s", out)
	}
}

func TestWsnenergyRejectsUnstableConfig(t *testing.T) {
	out := runCLIExpectError(t, "-lambda", "20", "-mu", "10", "-experiment", "table2")
	if !strings.Contains(out, "unstable") {
		t.Fatalf("missing stability error:\n%s", out)
	}
}

// TestWsnenergyRejectsNonFiniteModelFlags: an infinite delay or horizon
// fails validation with a non-zero exit instead of printing a NaN row
// (-pud inf) or simulating forever (-simtime inf).
func TestWsnenergyRejectsNonFiniteModelFlags(t *testing.T) {
	for _, tc := range []struct{ flag, field string }{
		{"-pud", "PUD"},
		{"-pdt", "PDT"},
		{"-simtime", "SimTime"},
		{"-warmup", "Warmup"},
	} {
		out := runCLIExpectError(t, "-experiment", "table4", "-format", "csv", tc.flag, "inf")
		if !strings.Contains(out, tc.field) || strings.Contains(out, "NaN") {
			t.Errorf("%s inf: want a validation error naming %s, got:\n%s", tc.flag, tc.field, out)
		}
	}
}

// The TestPetrisim* tests drive the `petri` subcommand, the TestSweep*
// tests below the `grid` subcommand.
func TestPetrisimInvariants(t *testing.T) {
	out := runCLI(t, "petri", "-paper", "-invariants")
	for _, want := range []string{"Stand_By", "Power_Up", "CPU_ON", "= 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("invariants output missing %q:\n%s", want, out)
		}
	}
}

func TestPetrisimDumpAndReload(t *testing.T) {
	dump := runCLI(t, "petri", "-paper", "-dump", "-pdt", "0.25")
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.json")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "petri", "-net", path, "-time", "200", "-reps", "2")
	for _, want := range []string{"CPU_Buffer", "Transition throughput", "SR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("simulation output missing %q:\n%s", want, out)
		}
	}
}

func TestPetrisimDOT(t *testing.T) {
	out := runCLI(t, "petri", "-paper", "-dot")
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "odot") {
		t.Fatalf("DOT output malformed:\n%.200s", out)
	}
}

func TestPetrisimSolveRejectsDSPN(t *testing.T) {
	// The paper net has deterministic transitions; exact CTMC must refuse.
	out := runCLIExpectError(t, "petri", "-paper", "-solve")
	if !strings.Contains(out, "non-exponential") {
		t.Fatalf("missing ErrNotMarkovian message:\n%s", out)
	}
}

func TestSweepCSV(t *testing.T) {
	out := runCLI(t, "grid",
		"-pdts", "0,0.5", "-puds", "0.001", "-methods", "markov,erlang4",
		"-simtime", "100", "-reps", "1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 PDTs x 1 PUD x 2 methods.
	if len(lines) != 5 {
		t.Fatalf("grid produced %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "method,pdt,pud") {
		t.Fatalf("grid header wrong: %s", lines[0])
	}
	if !strings.Contains(out, "ErlangMarkov(K=4)") {
		t.Fatalf("grid missing erlang rows:\n%s", out)
	}
}

func TestSweepRejectsBadRange(t *testing.T) {
	out := runCLIExpectError(t, "grid", "-pdts", "1:0:0.1")
	if !strings.Contains(out, "invalid range") {
		t.Fatalf("missing range error:\n%s", out)
	}
}

// TestSweepRejectsInvalidGridPointBeforeOutput: a grid point that fails
// validation exits non-zero with nothing on stdout, not a bare header.
func TestSweepRejectsInvalidGridPointBeforeOutput(t *testing.T) {
	cmd := exec.Command(wsnenergyBinary(t), "grid", "-puds", "inf", "-pdts", "0", "-methods", "markov")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("grid with an infinite PUD succeeded:\n%s", stdout.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("failed grid wrote to stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "PUD") {
		t.Fatalf("error does not name PUD:\n%s", stderr.String())
	}
}

func TestSweepRejectsUnknownMethod(t *testing.T) {
	out := runCLIExpectError(t, "grid", "-methods", "quantum")
	if !strings.Contains(out, "unknown method") {
		t.Fatalf("missing method error:\n%s", out)
	}
}
