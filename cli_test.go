// End-to-end tests of the three command-line tools, exercised exactly the
// way a user would run them.
package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI executes `go run ./cmd/<tool> args...` and returns stdout.
func runCLI(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	cmd.Dir = "."
	out, err := cmd.Output()
	if err != nil {
		stderr := ""
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = string(ee.Stderr)
		}
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, stderr)
	}
	return string(out)
}

// runCLIExpectError executes a tool and asserts a non-zero exit.
func runCLIExpectError(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", tool, args, out)
	}
	return string(out)
}

func TestWsnenergyTable3(t *testing.T) {
	out := runCLI(t, "wsnenergy", "-experiment", "table3")
	for _, want := range []string{"PXA271", "17.000", "192.442"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestWsnenergyTable4ReducedCSV(t *testing.T) {
	out := runCLI(t, "wsnenergy", "-experiment", "table4",
		"-simtime", "100", "-reps", "2", "-format", "csv")
	if !strings.Contains(out, "Power Up Delay (sec)") {
		t.Fatalf("table4 CSV missing header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3 PUD rows
		t.Fatalf("table4 CSV has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestWsnenergyUnknownExperiment(t *testing.T) {
	out := runCLIExpectError(t, "wsnenergy", "-experiment", "nope")
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
		out := runCLIExpectError(t, "wsnenergy", args...)
		if want := `unknown subcommand "` + args[0] + `"`; !strings.Contains(out, want) {
			t.Fatalf("wsnenergy %v: missing %q:\n%s", args, want, out)
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
	} {
		out := runCLIExpectError(t, "wsnenergy", tc.args...)
		if !strings.Contains(out, tc.want) {
			t.Fatalf("wsnenergy %v: missing %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestWsnenergySweepRejectsNonGridExperiment: only the grid artifacts can
// be submitted to the sweep service; the client refuses the rest before it
// contacts the coordinator.
func TestWsnenergySweepRejectsNonGridExperiment(t *testing.T) {
	out := runCLIExpectError(t, "wsnenergy", "sweep", "-join", "http://127.0.0.1:1", "-experiment", "table1")
	if !strings.Contains(out, "not a shardable sweep") {
		t.Fatalf("missing shardability error:\n%s", out)
	}
}

func TestWsnenergyRejectsUnstableConfig(t *testing.T) {
	out := runCLIExpectError(t, "wsnenergy", "-lambda", "20", "-mu", "10", "-experiment", "table2")
	if !strings.Contains(out, "unstable") {
		t.Fatalf("missing stability error:\n%s", out)
	}
}

func TestPetrisimInvariants(t *testing.T) {
	out := runCLI(t, "petrisim", "-paper", "-invariants")
	for _, want := range []string{"Stand_By", "Power_Up", "CPU_ON", "= 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("invariants output missing %q:\n%s", want, out)
		}
	}
}

func TestPetrisimDumpAndReload(t *testing.T) {
	dump := runCLI(t, "petrisim", "-paper", "-dump", "-pdt", "0.25")
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.json")
	if err := os.WriteFile(path, []byte(dump), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "petrisim", "-net", path, "-time", "200", "-reps", "2")
	for _, want := range []string{"CPU_Buffer", "Transition throughput", "SR"} {
		if !strings.Contains(out, want) {
			t.Fatalf("simulation output missing %q:\n%s", want, out)
		}
	}
}

func TestPetrisimDOT(t *testing.T) {
	out := runCLI(t, "petrisim", "-paper", "-dot")
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "odot") {
		t.Fatalf("DOT output malformed:\n%.200s", out)
	}
}

func TestPetrisimSolveRejectsDSPN(t *testing.T) {
	// The paper net has deterministic transitions; exact CTMC must refuse.
	out := runCLIExpectError(t, "petrisim", "-paper", "-solve")
	if !strings.Contains(out, "non-exponential") {
		t.Fatalf("missing ErrNotMarkovian message:\n%s", out)
	}
}

func TestSweepCSV(t *testing.T) {
	out := runCLI(t, "sweep",
		"-pdts", "0,0.5", "-puds", "0.001", "-methods", "markov,erlang4",
		"-simtime", "100", "-reps", "1")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 PDTs x 1 PUD x 2 methods.
	if len(lines) != 5 {
		t.Fatalf("sweep produced %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "method,pdt,pud") {
		t.Fatalf("sweep header wrong: %s", lines[0])
	}
	if !strings.Contains(out, "ErlangMarkov(K=4)") {
		t.Fatalf("sweep missing erlang rows:\n%s", out)
	}
}

func TestSweepRejectsBadRange(t *testing.T) {
	out := runCLIExpectError(t, "sweep", "-pdts", "1:0:0.1")
	if !strings.Contains(out, "invalid range") {
		t.Fatalf("missing range error:\n%s", out)
	}
}

func TestSweepRejectsUnknownMethod(t *testing.T) {
	out := runCLIExpectError(t, "sweep", "-methods", "quantum")
	if !strings.Contains(out, "unknown method") {
		t.Fatalf("missing method error:\n%s", out)
	}
}
