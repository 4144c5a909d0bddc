// Command wsnbench is the project's end-to-end benchmark. It runs each
// workload in a fresh child process (it re-executes itself), measures it
// for a fixed time, checks every output against committed references, and
// prints every metric by name with its unit.
//
// From the bench directory:
//
//	go run ./wsnbench                        # every workload, end-to-end metrics
//	go run ./wsnbench -workload field-steady # one workload; last line is JSON
//	go run ./wsnbench -trace 1 -trace-out t.json   # micro-probes + per-layer ledger
//	go run ./wsnbench -sets 5                # stability: medians and spreads
//
// bash bench/run.sh, from the repository root, builds the command inside
// the checkout and passes its arguments through. README.md lists the
// workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run repeats its set-up procedure; setup_s
// is the median.
const setupReps = 10

// childTimeout bounds one workload process.
const childTimeout = 170 * time.Second

type metric struct{ name, unit, better string }

// endToEnd are the metrics a run without tracing reports, for every
// workload. Workload-specific names (suite_s, node_s_per_s, ...) are
// aliases of these; see workload.aliases.
//
// op_min_ms is the fastest op of the run. Every op of a workload does the
// same work, so it is bounded below by the program's own cost; on a shared
// host it repeats within a few percent, where the median moves with the
// neighbours' load.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"op_min_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// extraMetrics are printed and written with -json but carry no bound: on a
// shared host they do not repeat within a tenth from run to run.
var extraMetrics = []metric{
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops", "count", "higher"},
}

// perLayer are the metrics a traced run reports, for every workload. A
// layer the workload does not exercise reads 0.
var perLayer = func() []metric {
	names := []string{
		"xrand.exp_ns", "xrand.u64_ns",
		"petri.compile_us", "petri.event_ns", "petri.session_open_us", "petri.stepto_ns", "petri.inject_ns",
		"core.est_sim_ms", "core.est_petri_ms", "core.est_markov_us", "markov.erlang32_ms", "markov.erlang64_ms",
		"core.run_miss_ms", "core.run_hit_us", "core.filecache_get_us", "core.filecache_put_us",
		"core.runall_table4_ms", "shard.plan_us", "shard.merge_us",
		"sweepd.submit_us.durable", "sweepd.submit_us.memory", "sweepd.lease_us.durable", "sweepd.lease_us.memory",
		"sweepd.results_us.durable", "sweepd.results_us.memory", "sweepd.write_results_ms",
	}
	for _, a := range artifactNames {
		names = append(names, "experiments."+a+"_ms")
	}
	names = append(names, "experiments.span_ratio", "core.cache_hits", "core.cache_entries")
	for _, ep := range sweepEndpoints {
		for _, side := range []string{"rtt", "server"} {
			names = append(names, "sweepd."+ep+"_"+side+"_ms.p50", "sweepd."+ep+"_"+side+"_ms.p90")
		}
	}
	names = append(names, "sweepd.lease_polls_per_op", "sweepd.lease_useful_ratio",
		"sweepd.attr.est_ms", "sweepd.attr.cache_rtt_ms", "sweepd.attr.filecache_ms", "sweepd.attr.results_rtt_ms",
		"sweepd.attr.lease_rtt_ms", "sweepd.attr.idle_ms",
		"field.setup_ms", "field.setup_us_per_node", "field.steady_ns_per_node_s",
		"field.deaths", "field.dropped_in_flight", "field.dropped_no_route", "field.delivery_ratio",
		"trace.untraced_op_p50_ms", "trace.untraced_op_p90_ms", "trace.traced_op_p50_ms")
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = metric{n, layerUnit(n), layerBetter(n)}
	}
	return out
}()

// timeUnit finds a time unit in a metric name: "_ms" followed by the end,
// "." or "_", as in sweepd.lease_us.durable or field.setup_us_per_node.
var timeUnit = regexp.MustCompile(`_(ns|us|ms)(\.|_|$)`)

func layerUnit(name string) string {
	if m := timeUnit.FindStringSubmatch(name); m != nil {
		return m[1]
	}
	if strings.HasSuffix(name, "ratio") {
		return "ratio"
	}
	return "count"
}

func layerBetter(name string) string {
	if strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "cache_hits") {
		return "higher"
	}
	return "lower"
}

// result is what one workload process reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Ledger    []layerRow         `json:"ledger,omitempty"`
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) correct() bool { return r.Attempted > 0 && r.Failed == 0 }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	traceOut string
	jsonOut  string
	sets     int
	workdir  string
}

func main() {
	var o options
	var child, ready bool
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed (wsnenergy's default)")
	flag.Float64Var(&o.seconds, "seconds", 18, "timed phase per workload, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: run the micro-probes and a traced phase, and report per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the spans and the per-layer ledger of a traced run to this JSON file")
	flag.StringVar(&o.jsonOut, "json", "", "write every result to this JSON file")
	flag.IntVar(&o.sets, "sets", 0, "run every workload this many times, alternating the order, and report medians and spreads")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory")
	flag.BoolVar(&child, "child", false, "run one workload in this process (used by the parent)")
	flag.BoolVar(&ready, "ready", false, "exit once initialized (the artifacts set-up probe)")
	flag.Parse()
	if ready {
		return
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(os.Stderr, "wsnbench: -trace is 0 or 1, got %d\n", o.trace)
		os.Exit(2)
	}
	if child {
		os.Exit(runChild(o))
	}
	os.Exit(runParent(o, os.Stdout))
}

func newEnv(o options) (*env, error) {
	ref, err := loadReference(referenceJSON)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &env{seed: o.seed, nproc: runtime.NumCPU(), workdir: o.workdir, self: self, ref: ref}, nil
}

// runChild measures one workload in this process and prints its result as
// the last line of standard output.
func runChild(o options) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "wsnbench: unknown workload %q\n", o.workload)
		return 2
	}
	e, err := newEnv(o)
	if err == nil {
		err = os.MkdirAll(o.workdir, 0o755)
	}
	if err == nil {
		e.workdir, err = os.MkdirTemp(o.workdir, w.name+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnbench:", err)
		return 1
	}
	defer func() {
		// The sync makes ext4, mounted with discard, issue the discards
		// for the removed state directories now, not during the next run.
		if err := os.RemoveAll(e.workdir); err != nil {
			fmt.Fprintln(os.Stderr, "wsnbench:", err)
		}
		syscall.Sync()
	}()
	var res result
	if o.trace == 1 {
		var spans []span
		res, spans = measureTraced(w, e, o.seconds)
		if o.traceOut != "" {
			if err := writeJSON(o.traceOut, map[string]any{"workload": w.name, "spans": spans, "ledger": res.Ledger}); err != nil {
				res.fail(err)
			}
		}
	} else {
		res = measure(w, e, o.seconds, false)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnbench:", err)
		return 1
	}
	fmt.Printf("%s\n", out)
	return 0
}

// samples are the successful ops of a phase.
type samples struct {
	lats  []float64 // ms
	peaks []float64 // peak RSS during each op, MB
}

// phase runs ops until d has passed (at least one). Each op starts from a
// collected heap, as in a fresh process, with the kernel's peak-RSS mark
// reset, so that neither depends on how the previous op's garbage was
// paced.
func phase(r run, d time.Duration, res *result) samples {
	var s samples
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		res.Attempted++
		runtime.GC()
		err := resetPeakRSS()
		var lat time.Duration
		if err == nil {
			lat, err = r.op()
		}
		var peak float64
		if err == nil {
			peak, err = peakRSS()
		}
		if err != nil {
			res.fail(err)
			continue
		}
		s.lats = append(s.lats, ms(lat))
		s.peaks = append(s.peaks, peak)
	}
	return s
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the current
// RSS.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSS reads VmHWM, in MB.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// warmUp runs the untimed first op, whose output later ops must match.
func warmUp(r run, res *result) {
	res.Attempted++
	if _, err := r.op(); err != nil {
		res.fail(fmt.Errorf("warm-up: %w", err))
	}
}

// timeSetup repeats the workload's set-up procedure and returns the
// median time in seconds.
func timeSetup(w workload, e *env, res *result) float64 {
	var setup []float64
	for range setupReps {
		res.Attempted++
		start := time.Now()
		if err := w.setup(e); err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	return median(setup)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measure is a run without tracing: a warm-up op, the set-up procedure,
// then ops for the given time. A short run is one op and nothing else.
func measure(w workload, e *env, secs float64, short bool) result {
	res := result{Workload: w.name, Seed: e.seed, Metrics: map[string]float64{}}
	r, err := w.open(e)
	if err != nil {
		res.Attempted++
		res.fail(err)
		return res
	}
	d := seconds(secs)
	if short {
		d = 0
	} else {
		warmUp(r, &res)
		res.Metrics["setup_s"] = timeSetup(w, e, &res)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := phase(r, d, &res)
	runtime.ReadMemStats(&m1)
	if err := r.close(); err != nil {
		res.fail(err)
	}
	if n := len(s.lats); n > 0 {
		res.Metrics["op_min_ms"] = percentile(s.lats, 0)
		res.Metrics["op_p50_ms"] = percentile(s.lats, 50)
		res.Metrics["op_p90_ms"] = percentile(s.lats, 90)
		res.Metrics["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n) / 1e6
		res.Metrics["peak_rss_mb"] = median(s.peaks)
		res.Metrics["ops"] = float64(n)
	}
	return res
}

// traceBlocks is how many blocks a traced run's timed phase is cut into.
// Blocks alternate between untraced and traced ops, so that both see the
// same host: on a shared machine, speed drifts over seconds.
const traceBlocks = 8

// measureTraced is a traced run: the micro-probes, then the workload in
// alternating untraced and traced blocks. The difference of the two
// medians is the tracing overhead.
func measureTraced(w workload, e *env, secs float64) (result, []span) {
	res := result{Workload: w.name, Seed: e.seed, Traced: true, Metrics: map[string]float64{}}
	probes, err := runProbes(e)
	if err != nil {
		res.Attempted++
		res.fail(fmt.Errorf("micro-probes: %w", err))
	}
	for k, v := range probes {
		res.Metrics[k] = v
	}
	r, err := w.open(e)
	if err != nil {
		res.Attempted++
		res.fail(err)
		return res, nil
	}
	warmUp(r, &res)
	tr := newTracer()
	e.t = tr
	timeSetup(w, e, &res)
	var plain, traced []float64
	for b := range traceBlocks {
		if b%2 == 0 {
			e.t = nil
			plain = append(plain, phase(r, seconds(secs/traceBlocks), &res).lats...)
		} else {
			e.t = tr
			traced = append(traced, phase(r, seconds(secs/traceBlocks), &res).lats...)
		}
	}
	if err := r.close(); err != nil {
		res.fail(err)
	}
	e.t = nil

	spans := tr.snapshot()
	adopt(spans, "core.filecache_get", "sweepd.cache_get_server")
	adopt(spans, "core.filecache_put", "sweepd.cache_put_server")
	for k, v := range r.layers(spans, len(traced)) {
		res.Metrics[k] = v
	}
	res.Metrics["trace.untraced_op_p50_ms"] = zeroNaN(percentile(plain, 50))
	res.Metrics["trace.untraced_op_p90_ms"] = zeroNaN(percentile(plain, 90))
	res.Metrics["trace.traced_op_p50_ms"] = zeroNaN(percentile(traced, 50))
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			res.Metrics[m.name] = 0
		}
	}
	res.Ledger = ledger(spans)
	return res, spans
}

// ---------------------------------------------------------------------------
// The parent: one child process per workload run.

func runParent(o options, stdout io.Writer) int {
	var names []string
	if o.workload == "all" {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else {
		for _, n := range strings.Split(o.workload, ",") {
			if _, ok := findWorkload(n); !ok {
				fmt.Fprintf(os.Stderr, "wsnbench: unknown workload %q\n", n)
				return 2
			}
			names = append(names, n)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnbench:", err)
		return 1
	}
	sets := max(o.sets, 1)
	var all []result
	ok := true
	for set := range sets {
		order := append([]string(nil), names...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := spawn(self, name, o)
			if err != nil {
				res = result{Workload: name, Seed: o.seed, Metrics: map[string]float64{}}
				res.Attempted++
				res.fail(err)
			}
			ok = ok && res.correct()
			if o.sets == 0 {
				printResult(stdout, res)
			}
			all = append(all, res)
		}
	}
	if o.sets > 0 {
		printSets(stdout, names, all)
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, all); err != nil {
			fmt.Fprintln(os.Stderr, "wsnbench:", err)
			ok = false
		}
	}
	if len(all) == 1 {
		fmt.Fprintf(stdout, "%s\n", contractLine(all[0], o.trace == 1))
	}
	if !ok {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process.
func spawn(self, name string, o options) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-workdir", o.workdir}
	if o.traceOut != "" {
		args = append(args, "-trace-out", o.traceOut)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("workload %s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return result{}, fmt.Errorf("workload %s: reading its result: %w", name, err)
	}
	return res, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// contractLine is the one-line JSON summary of a single run: correctness,
// op counts, and either every end-to-end or every per-layer metric.
func contractLine(res result, traced bool) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	correct := res.correct()
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := res.Metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			correct, v = false, 0
		}
		metrics[m.name] = value{v, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.Attempted, res.Failed, metrics})
	return out
}

func printResult(w io.Writer, res result) {
	wl, _ := findWorkload(res.Workload)
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	mode := "end to end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(bw, "== %s (%s; seed %d; nproc %d; %s)\n", res.Workload, mode, res.Seed, runtime.NumCPU(), runtime.Version())
	row := func(name, unit string, v float64) { fmt.Fprintf(bw, "  %-34s %14.6g %s\n", name, v, unit) }
	if !res.Traced {
		for _, m := range append(endToEnd, extraMetrics...) {
			row(m.name, m.unit, res.Metrics[m.name])
		}
		for _, a := range wl.aliases {
			row(a.name, a.unit, a.value(res.Metrics))
		}
	} else {
		for _, m := range perLayer {
			row(m.name, m.unit, res.Metrics[m.name])
		}
		fmt.Fprintf(bw, "  %-34s %8s %14s %10s %10s %8s\n", "span", "count", "self_busy_ms", "p50_ms", "p90_ms", "failed")
		for _, l := range res.Ledger {
			fmt.Fprintf(bw, "  %-34s %8d %14.3f %10.4f %10.4f %8d\n", l.Name, l.Count, l.SelfMs, l.P50Ms, l.P90Ms, l.Failures)
		}
		un, tr := res.Metrics["trace.untraced_op_p50_ms"], res.Metrics["trace.traced_op_p50_ms"]
		fmt.Fprintf(bw, "  tracing overhead: %+.4g ms per op (%+.2f%%)\n", tr-un, (tr-un)/un*100)
	}
	fmt.Fprintf(bw, "  attempted %d  failed %d  fail_ratio %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, e := range res.Errors {
		fmt.Fprintf(bw, "  error: %s\n", e)
	}
}

// printSets prints, per workload and end-to-end metric, the median over
// the sets and the spread (max - min) / median.
func printSets(w io.Writer, names []string, all []result) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	fmt.Fprintf(bw, "%-16s %-20s %5s %14s %9s  values\n", "workload", "metric", "unit", "median", "spread")
	for _, name := range names {
		wl, _ := findWorkload(name)
		vals := map[string][]float64{}
		failed := 0
		for _, r := range all {
			if r.Workload != name {
				continue
			}
			failed += r.Failed
			for _, m := range append(endToEnd, extraMetrics...) {
				vals[m.name] = append(vals[m.name], r.Metrics[m.name])
			}
			for _, a := range wl.aliases {
				vals[a.name] = append(vals[a.name], a.value(r.Metrics))
			}
		}
		keys := make([]string, 0, len(vals))
		units := map[string]string{}
		for _, m := range append(endToEnd, extraMetrics...) {
			keys, units[m.name] = append(keys, m.name), m.unit
		}
		for _, a := range wl.aliases {
			keys, units[a.name] = append(keys, a.name), a.unit
		}
		for _, k := range keys {
			v := vals[k]
			s := make([]string, len(v))
			for i, x := range v {
				s[i] = strconv.FormatFloat(x, 'g', 5, 64)
			}
			fmt.Fprintf(bw, "%-16s %-20s %5s %14.6g %8.2f%%  %s\n", name, k, units[k], median(v), spread(v)*100, strings.Join(s, " "))
		}
		fmt.Fprintf(bw, "%-16s %-20s %5s %14d\n", name, "failed", "count", failed)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
