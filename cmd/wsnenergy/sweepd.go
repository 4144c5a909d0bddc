// The sweep-service subcommands turn the sweep artifacts into a
// long-running coordinator/worker fleet:
//
//	wsnenergy serve -listen 127.0.0.1:8080 [-state-dir dir] [-lease 30s]
//	wsnenergy work  -join http://127.0.0.1:8080 [-name w1] [-parallel N]
//	wsnenergy sweep -join http://127.0.0.1:8080 -experiment table4 \
//	    -format csv [model flags]
//
// serve hosts the coordinator: it accepts sweeps, re-plans them against
// the cost model its workers report, leases partitions with heartbeat
// deadlines, replans exactly what crashed workers leave missing, and keeps
// the fleet's result cache, storing every result set it accepts so a
// resubmitted sweep is answered at submit. With -state-dir every transition is
// write-ahead journaled and a restarted coordinator recovers its sweeps
// exactly where they stopped; SIGTERM drains gracefully (stop leasing,
// wait bounded time for in-flight work, journal a clean shutdown). work
// joins a worker that polls with bounded exponential backoff until the
// coordinator drains; its first SIGTERM finishes the current lease and
// exits, a second aborts the lease (cleanly failed back). sweep submits
// an artifact's grid, waits, and renders the merged output —
// byte-identical to running the same artifact in one process, whatever
// happens to the fleet mid-run; -detach and -attach split submission from
// rendering across coordinator restarts.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/shard"
	"repro/internal/sweepd"
)

// serveMain runs the sweep coordinator until interrupted.
func serveMain(args []string) {
	fs := newFlagSet("serve")
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "address to serve the coordinator API on")
		lease        = fs.Duration("lease", sweepd.DefaultLeaseTTL, "lease TTL: a worker silent this long loses its partition")
		attempts     = fs.Int("attempts", sweepd.DefaultAttempts, "attempts per partition before its sweep fails")
		partitions   = fs.Int("partitions", sweepd.DefaultPartitions, "default lease partitions per sweep")
		stateDir     = fs.String("state-dir", "", "journal every transition under this directory and recover from it at startup (also hosts the result cache)")
		drainWait    = fs.Duration("drain", 30*time.Second, "on SIGTERM, wait this long for in-flight leases before exiting")
		cacheDir     = fs.String("cache", "", "persist the coordinator's result cache in this directory, behind its in-memory LRU (default: state-dir/cache with -state-dir, else memory only)")
		cacheEntries = fs.Int("cache-entries", 0, "entry bound for the in-memory LRU that answers before -cache or state-dir/cache (0 = 65536)")
		quiet        = fs.Bool("quiet", false, "suppress progress logging")
	)
	parseFlags(fs, args)

	opts := sweepd.Options{
		LeaseTTL:          *lease,
		MaxAttempts:       *attempts,
		DefaultPartitions: *partitions,
		StateDir:          *stateDir,
		CacheEntries:      *cacheEntries,
	}
	if !*quiet {
		opts.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
		}
	}
	if *cacheDir != "" {
		backend, err := core.NewFileBackend(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opts.Cache = backend
	}
	coord, err := sweepd.Open(opts)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// Announce the resolved address (meaningful with -listen :0) on stdout
	// so scripts and tests can discover the port.
	fmt.Printf("listening on http://%s\n", ln.Addr())

	srv := &http.Server{Handler: sweepd.Handler(coord)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Replay the journal while the listener already answers /v1/healthz;
	// /v1/readyz flips to 200 (and leasing starts) when this returns.
	if err := coord.Recover(); err != nil {
		fatal(err)
	}

	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		// Graceful drain: refuse new leases, wait (bounded) for in-flight
		// ones, journal the clean shutdown, then close the listener.
		coord.Shutdown(*drainWait)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		<-serveErr
	}
}

// workMain joins the fleet as a worker.
func workMain(args []string) {
	fs := newFlagSet("work")
	var (
		join     = fs.String("join", "", "coordinator base URL (required)")
		name     = fs.String("name", "", "worker name in coordinator status (default host:pid)")
		parallel = fs.Int("parallel", 0, "concurrent (scenario, estimator) evaluations within this worker, the only parallelism (0 = all CPUs)")
		idle     = fs.Int("idle-exit", 0, "exit after this many consecutive empty polls (0 = stay)")
		cacheDir = fs.String("local-cache", "", "memoize leases through a file-backed result cache in this directory (default: a fresh in-memory cache per lease)")
		quiet    = fs.Bool("quiet", false, "suppress progress logging")
	)
	parseFlags(fs, args)
	if *join == "" {
		fatal(errors.New("work needs -join <coordinator URL>"))
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	opts := sweepd.WorkerOptions{
		Coordinator:  *join,
		Name:         *name,
		Parallelism:  *parallel,
		MaxIdlePolls: *idle,
		CacheDir:     *cacheDir,
	}
	if !*quiet {
		opts.Log = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "work %s: "+format+"\n", append([]any{*name}, a...)...)
		}
	}
	// First SIGTERM/SIGINT: graceful drain — finish the current lease,
	// then exit. Second: abort the lease mid-run (the worker cleanly fails
	// it back so the coordinator requeues it immediately).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	drain := make(chan struct{})
	opts.Drain = drain
	go func() {
		<-sigc
		close(drain)
		<-sigc
		cancel()
	}()
	if err := sweepd.Work(ctx, opts); err != nil {
		fatal(err)
	}
}

// sweepMain submits a sweep, waits for the fleet, and renders the merged
// artifact.
func sweepMain(args []string) {
	fs := newFlagSet("sweep")
	var (
		join       = fs.String("join", "", "coordinator base URL (required)")
		experiment = fs.String("experiment", "", "sweep artifact: fig4, fig5, table4 or table5")
		partitions = fs.Int("partitions", 0, "lease partitions for this sweep (0 = coordinator default)")
		format     = fs.String("format", "text", "output format: text, csv or md")
		chartW     = fs.Int("chartwidth", 72, "ASCII chart width for figures in text mode")
		chartH     = fs.Int("chartheight", 20, "ASCII chart height")
		poll       = fs.Duration("poll", 500*time.Millisecond, "status poll interval while waiting")
		timeout    = fs.Duration("timeout", 0, "give up after this long (0 = wait forever)")
		detach     = fs.Bool("detach", false, "submit, print the sweep id on stdout, and exit without waiting")
		attach     = fs.String("attach", "", "wait on this already-submitted sweep id instead of submitting (experiment and model flags must match the original submission)")
		model      = addModelFlags(fs)
	)
	parseFlags(fs, args)
	if *join == "" {
		fatal(errors.New("sweep needs -join <coordinator URL>"))
	}
	opt, err := model.options()
	if err != nil {
		fatal(err)
	}
	// The manifest's own partition is advisory (the coordinator re-plans),
	// so plan with 1 shard and let -partitions steer the service.
	m, err := buildManifest(*experiment, 1, opt)
	if err != nil {
		fatal(err)
	}
	client, err := sweepd.NewClient(*join, nil)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := runSweep(ctx, client, m, *partitions, *poll, *format, *chartW, *chartH, *attach, *detach); err != nil {
		fatal(err)
	}
}

// runSweep drives one sweep through the service and renders the result.
// A non-empty attach id skips submission and waits on an existing sweep
// (rendering validates the stream against the locally built manifest, so
// the attach must use the same experiment and model flags); detach
// submits, prints the id, and returns without waiting.
func runSweep(ctx context.Context, client *sweepd.Client, m *shard.Manifest, partitions int, poll time.Duration, format string, chartW, chartH int, attach string, detach bool) error {
	id := attach
	if id == "" {
		var err error
		id, err = client.Submit(sweepd.SubmitRequest{Manifest: m, Partitions: partitions})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep %s submitted: %s, %d scenarios\n", id, m.Experiment, m.Total)
		if detach {
			// The id on stdout is the handle a later -attach (possibly after
			// a coordinator restart) picks the sweep back up with.
			fmt.Println(id)
			return nil
		}
	} else {
		fmt.Fprintf(os.Stderr, "sweep %s: attached (%s, %d scenarios expected)\n", id, m.Experiment, m.Total)
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		st, err := client.SweepStatus(id)
		if err != nil {
			return err
		}
		switch st.State {
		case sweepd.StateDone:
			return renderSweep(client, m, id, format, chartW, chartH)
		case sweepd.StateFailed:
			return fmt.Errorf("sweep %s failed: %s", id, st.Error)
		}
		fmt.Fprintf(os.Stderr, "sweep %s: %d/%d scenarios (%d queued, %d leased)\n",
			id, st.Completed, st.Total, st.Queued, st.Leased)
		select {
		case <-ctx.Done():
			return fmt.Errorf("sweep %s: gave up waiting: %w (the sweep keeps running server-side)", id, ctx.Err())
		case <-ticker.C:
		}
	}
}

// renderSweep fetches a completed sweep's results and renders the artifact
// through the shard package's merge, re-validating the stream against the
// submitted manifest on the way.
func renderSweep(client *sweepd.Client, m *shard.Manifest, id, format string, chartW, chartH int) error {
	resp, err := client.SweepResults(id)
	if err != nil {
		return err
	}
	if !resp.Complete {
		return fmt.Errorf("sweep %s reported done but streams incomplete results", id)
	}
	rs := &shard.ResultSet{Version: shard.ResultSetVersion, Results: resp.Results}
	results, err := shard.Merge(m, []*shard.ResultSet{rs})
	if err != nil {
		return err
	}
	return renderExperiment(m, results, format, chartW, chartH)
}

// sweepExtra is the coordinator context stored in the manifest's Extra
// field: the sweep axes the merge-time renderer needs.
type sweepExtra struct {
	PDTs []float64 `json:"pdts"`
	PUDs []float64 `json:"puds"`
}

// buildManifest plans an artifact's scenario grid into the manifest the
// `sweep` client submits.
func buildManifest(experiment string, shards int, opt experiments.Options) (*shard.Manifest, error) {
	scenarios, err := experiments.GridScenarios(experiment, opt)
	if err != nil {
		return nil, err
	}
	spec := shard.RunnerSpec{
		Base: opt.Base,
		// The in-process sweeps do not set an explicit master seed, so the
		// Runner defaults it to the base configuration's: workers must do
		// the same for merged output to match a single-process run.
		Seed: opt.Base.Seed,
		// The estimator set of every sweep artifact, recorded by spec so
		// workers resolve the identical list through the registry.
		Methods:     core.MethodSpecs(),
		DeriveSeeds: true,
	}
	m, err := shard.NewManifest(experiment, spec, scenarios, shards)
	if err != nil {
		return nil, err
	}
	if m.Extra, err = json.Marshal(sweepExtra{PDTs: opt.PDTs, PUDs: opt.PUDs}); err != nil {
		return nil, err
	}
	return m, nil
}

// renderExperiment renders a sweep artifact from merged results, using the
// manifest to reconstruct the renderer's options, so the output is
// byte-identical to the same artifact run in one process.
func renderExperiment(m *shard.Manifest, results []core.Result, format string, chartW, chartH int) error {
	opt, err := mergeOptions(m)
	if err != nil {
		return err
	}
	var (
		t   *report.Table
		fig *report.Figure
	)
	switch m.Experiment {
	case "fig4":
		fig, err = experiments.Figure4FromResults(opt, results)
	case "fig5":
		fig, err = experiments.Figure5FromResults(opt, results)
	case "table4":
		t, err = experiments.Table4FromResults(opt, results)
	case "table5":
		t, err = experiments.Table5FromResults(opt, results)
	default:
		return fmt.Errorf("manifest plans unknown experiment %q", m.Experiment)
	}
	if err != nil {
		return err
	}
	if fig != nil {
		return emitFigure(fig, format, chartW, chartH)
	}
	return emitTable(t, format)
}

// mergeOptions reconstructs the experiment options a renderer needs from
// the manifest: the shared base config, the sweep axes from Extra, and the
// estimators resolved from the Runner spec.
func mergeOptions(m *shard.Manifest) (experiments.Options, error) {
	var extra sweepExtra
	if len(m.Extra) == 0 {
		return experiments.Options{}, fmt.Errorf("manifest carries no sweep axes (written by an incompatible planner?)")
	}
	if err := json.Unmarshal(m.Extra, &extra); err != nil {
		return experiments.Options{}, fmt.Errorf("decoding manifest sweep axes: %w", err)
	}
	ests, err := core.NewEstimators(m.Runner.Methods...)
	if err != nil {
		return experiments.Options{}, err
	}
	return experiments.Options{
		Base:       m.Runner.Base,
		PDTs:       extra.PDTs,
		PUDs:       extra.PUDs,
		Estimators: ests,
	}, nil
}

// newFlagSet builds a subcommand flag set that exits on parse errors.
func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet("wsnenergy "+name, flag.ExitOnError)
}

// parseFlags parses or dies: ExitOnError flag sets exit on a bad flag,
// and a positional argument left over is refused rather than ignored.
func parseFlags(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("%s: unexpected argument %q", strings.TrimPrefix(fs.Name(), "wsnenergy "), fs.Arg(0)))
	}
}
