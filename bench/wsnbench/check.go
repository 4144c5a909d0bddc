package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/shard"
)

// defaultSeed is wsnenergy's default -seed. The committed reference
// digests were made with it; at any other seed a workload's outputs are
// checked against its own first op and against independently computed
// results instead.
const defaultSeed = 20080901

//go:embed testdata/reference.json
var referenceJSON []byte

// reference maps a workload name to the sha256 digest of its output at
// defaultSeed.
type reference map[string]string

func loadReference(data []byte) (reference, error) {
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	return ref, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digest hashes the canonical text of a value: fmt's %+v, which prints
// struct fields in declaration order and every float64 in its shortest
// exact form (including ±Inf, which encoding/json refuses). Values hashed
// here hold no pointers or maps, so the text is a function of content.
func digest(v any) string { return digestBytes([]byte(fmt.Sprintf("%+v", v))) }

// digestResults hashes Runner or merged sweep results in their wire form.
func digestResults(results []core.Result) (string, error) {
	rs, err := shard.NewResultSet(0, results)
	if err != nil {
		return "", err
	}
	return digest(rs.Results), nil
}

// canonicalOutput removes from `wsnenergy -experiment all -format csv`
// output what differs between two runs of the same build: the X-6
// convergence table's "Wall time" column, and the column order of figures
// (X-7 adds its series in Go map order). Artifacts are separated by blank
// lines; no CSV cell holds one.
func canonicalOutput(all string) (string, error) {
	parts := strings.Split(all, "\n\n")
	for i, p := range parts {
		recs, err := csv.NewReader(strings.NewReader(p)).ReadAll()
		if err != nil {
			return "", fmt.Errorf("artifact %d: %w", i+1, err)
		}
		if len(recs) == 0 {
			return "", fmt.Errorf("artifact %d is empty", i+1)
		}
		head := recs[0]
		var cols []int
		for c, h := range head {
			if h != "Wall time" {
				cols = append(cols, c)
			}
		}
		if head[0] == "x" {
			series := cols[1:]
			sort.SliceStable(series, func(a, b int) bool { return head[series[a]] < head[series[b]] })
		}
		var b strings.Builder
		w := csv.NewWriter(&b)
		for _, rec := range recs {
			row := make([]string, len(cols))
			for j, c := range cols {
				row[j] = rec[c]
			}
			_ = w.Write(row) // a strings.Builder does not fail; Error reports anything else
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return "", err
		}
		parts[i] = b.String()
	}
	return strings.Join(parts, "\n"), nil
}

// checker compares every op's digest with the expected one: the committed
// reference when there is one, otherwise the first op's.
type checker struct {
	want, source string
}

func newChecker(ref reference, name string, seed uint64) checker {
	if seed == defaultSeed && ref[name] != "" {
		return checker{want: ref[name], source: "committed reference"}
	}
	return checker{}
}

func (c *checker) check(got string) error {
	if c.want == "" {
		c.want, c.source = got, "first op"
		return nil
	}
	if got != c.want {
		return fmt.Errorf("output digest %.12s does not match %.12s (%s)", got, c.want, c.source)
	}
	return nil
}

// fieldInvariants checks accounting identities every field result must
// satisfy, whatever the seed.
func fieldInvariants(r *field.Result) error {
	var sum float64
	var samples uint64
	died := 0
	for _, n := range r.Nodes {
		sum += n.EnergyJ
		samples += n.Samples
		if n.Died {
			died++
		}
	}
	if math.Abs(r.TotalEnergyJ-sum) > 1e-9*math.Abs(sum) {
		return fmt.Errorf("TotalEnergyJ %v differs from the node sum %v", r.TotalEnergyJ, sum)
	}
	// A packet sensed during warmup may still be in flight when measurement
	// starts and count as delivered; allow one such packet per node.
	if slack := uint64(len(r.Nodes)); r.Delivered > samples+slack {
		return fmt.Errorf("Delivered %d exceeds %d sensed samples (+%d in flight)", r.Delivered, samples, slack)
	}
	if len(r.Deaths) != died {
		return fmt.Errorf("%d deaths in the timeline but %d nodes died", len(r.Deaths), died)
	}
	for i := 1; i < len(r.Deaths); i++ {
		if r.Deaths[i].Time < r.Deaths[i-1].Time {
			return fmt.Errorf("death %d at %v precedes death %d at %v", i, r.Deaths[i].Time, i-1, r.Deaths[i-1].Time)
		}
	}
	return nil
}
