package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/field"
)

// smallField is a 40-node tree on starved batteries: a few nodes die, so
// every invariant has something to check.
func smallField(t *testing.T) *field.Result {
	t.Helper()
	spec := fieldSpec{nodes: 40, rate: 0.5, battery: energy.Battery{CapacitymAh: 0.05, Volts: 3}, warmup: 5, horizon: 100}
	res, err := field.Simulate(spec.config(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deaths) < 2 {
		t.Fatalf("the test field should see deaths, saw %d", len(res.Deaths))
	}
	return res
}

func TestFieldInvariantsHoldAndCatchCorruption(t *testing.T) {
	res := smallField(t)
	if err := fieldInvariants(res); err != nil {
		t.Fatalf("valid result: %v", err)
	}
	for name, corrupt := range map[string]func(r *field.Result){
		"energy":    func(r *field.Result) { r.TotalEnergyJ *= 1 + 1e-6 },
		"delivered": func(r *field.Result) { r.Delivered += 1 << 40 },
		"deaths":    func(r *field.Result) { r.Nodes[0].Died = !r.Nodes[0].Died },
		"order":     func(r *field.Result) { r.Deaths[0].Time = math.Inf(1) },
	} {
		bad := *res
		bad.Nodes = append([]field.NodeResult(nil), res.Nodes...)
		bad.Deaths = append([]field.DeathEvent(nil), res.Deaths...)
		corrupt(&bad)
		if err := fieldInvariants(&bad); err == nil {
			t.Errorf("%s corruption passed the invariants", name)
		}
	}
}

func TestCheckerComparesDigests(t *testing.T) {
	res := smallField(t)
	good := digest(*res)
	bad := *res
	bad.Nodes = append([]field.NodeResult(nil), res.Nodes...)
	bad.Nodes[3].EnergyJ = math.Nextafter(bad.Nodes[3].EnergyJ, 1)
	if digest(bad) == good {
		t.Fatal("a one-ulp change did not change the digest")
	}

	var first checker
	if err := first.check(good); err != nil {
		t.Fatal(err)
	}
	if err := first.check(good); err != nil {
		t.Errorf("identical op: %v", err)
	}
	if err := first.check(digest(bad)); err == nil || !strings.Contains(err.Error(), "first op") {
		t.Errorf("corrupted op against the first op: %v", err)
	}

	ref := reference{"field-steady": good}
	if c := newChecker(ref, "field-steady", defaultSeed+1); c.want != "" {
		t.Error("a non-default seed was checked against the default-seed reference")
	}
	c := newChecker(ref, "field-steady", defaultSeed)
	if err := c.check(digest(bad)); err == nil || !strings.Contains(err.Error(), "committed reference") {
		t.Errorf("corrupted first op against the reference: %v", err)
	}
}

func TestCanonicalOutputIgnoresWallTimeAndSeriesOrder(t *testing.T) {
	a := "k,v\n\"a,b\",1\n\nMethod,Err,Wall time\nPN,0.5,267µs\n\nx,active,standby\n0,0,1\n"
	b := "k,v\n\"a,b\",1\n\nMethod,Err,Wall time\nPN,0.5,1.2ms\n\nx,standby,active\n0,1,0\n"
	ca, err := canonicalOutput(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonicalOutput(b)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Errorf("canonical forms differ:\n%s\nvs\n%s", ca, cb)
	}
	changed := strings.Replace(b, "PN,0.5", "PN,0.6", 1)
	if cc, _ := canonicalOutput(changed); cc == ca {
		t.Error("a changed result cell left the canonical form unchanged")
	}
}

// Every hop of the generated tree is 10 m long, and parents precede
// children.
func TestTreeNodes(t *testing.T) {
	nodes := treeNodes(1000, 0.005, 3)
	for _, n := range nodes[1:] {
		if n.Parent != (n.ID-1)/4 {
			t.Fatalf("node %d has parent %d", n.ID, n.Parent)
		}
		if d := field.Distance(n.Pos, nodes[n.Parent].Pos); math.Abs(d-10) > 1e-9 {
			t.Fatalf("node %d hop is %v m", n.ID, d)
		}
	}
	if other := treeNodes(1000, 0.005, 4); other[5].Pos == nodes[5].Pos {
		t.Error("placement does not depend on the seed")
	}
}
