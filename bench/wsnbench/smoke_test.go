package main

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the field and sweep digests in testdata/reference.json")

func testEnv(t *testing.T) *env {
	t.Helper()
	ref, err := loadReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: defaultSeed, nproc: runtime.NumCPU(), workdir: t.TempDir(), self: self, ref: ref}
}

// One op of every workload at the default seed, checked against the
// committed references.
func TestShortRunOfEveryWorkload(t *testing.T) {
	e := testEnv(t)
	for _, w := range workloads {
		res := measure(w, e, 0, true)
		if !res.correct() {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.Attempted, res.Failed, res.Errors)
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.name]; m.name != "setup_s" && !(v > 0) {
				t.Errorf("%s: %s = %v", w.name, m.name, v)
			}
		}
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	e := testEnv(t)
	e.ref = reference{"field-steady": strings.Repeat("0", 64)}
	w, _ := findWorkload("field-steady")
	if res := measure(w, e, 0, true); res.correct() || res.Failed != 1 {
		t.Errorf("a corrupted reference digest passed: %+v", res)
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// command reports.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		got  []decl
		want []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if g := c.got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v vs %+v", c.kind, i, g, m)
			}
		}
	}
}

// go test ./wsnbench -run TestUpdateReference -update recomputes every
// digest at the default seed. The artifacts digest is made from the
// output of `go run ./cmd/wsnenergy -experiment all -format csv`, not by
// this command.
func TestUpdateReference(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/reference.json")
	}
	cmd := exec.Command("go", "run", "./cmd/wsnenergy", "-experiment", "all", "-format", "csv")
	cmd.Dir = "../.."
	cmd.Stderr = os.Stderr
	all, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := canonicalOutput(string(all))
	if err != nil {
		t.Fatal(err)
	}
	ref := reference{"artifacts": digestBytes([]byte(canon))}
	e := testEnv(t)
	e.ref = nil
	for _, w := range workloads {
		if !strings.HasPrefix(w.name, "field-") {
			continue
		}
		r, err := w.open(e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.op(); err != nil {
			t.Fatal(err)
		}
		ref[w.name] = r.(*fieldRun).check.want
	}
	r, err := openSweep(e, false)
	if err != nil {
		t.Fatal(err)
	}
	ref["sweep"] = r.(*sweepRun).want
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/reference.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
