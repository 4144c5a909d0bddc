// The shard subcommand splits the sweep artifacts (fig4, fig5, table4,
// table5) across worker processes:
//
//	wsnenergy shard plan  -experiment table4 -shards 2 -out plan.json \
//	    [model flags: -lambda -mu -pud -simtime -warmup -reps -seed]
//	wsnenergy shard run   -plan plan.json -shard 0 -cache cachedir -out r0.json
//	wsnenergy shard run   -plan plan.json -shard 1 -cache cachedir -out r1.json
//	wsnenergy shard merge -plan plan.json -format csv r0.json r1.json
//
// plan partitions the artifact's scenario grid deterministically and
// records the Runner parameters every worker must share; run evaluates one
// shard (optionally through a file-backed result cache shared by all
// workers, so overlapping grid points are simulated once per fleet); merge
// reassembles the result streams in input order, detects conflicts, and
// renders output byte-identical to a single-process run with the same
// flags. Scenario seeds are derived from configuration content, never from
// placement, so the guarantee holds for any shard count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/shard"
)

// sweepExtra is the coordinator context stored in the manifest's Extra
// field: the sweep axes the merge-time renderer needs.
type sweepExtra struct {
	PDTs []float64 `json:"pdts"`
	PUDs []float64 `json:"puds"`
}

func shardMain(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("shard needs a subcommand: plan, run or merge"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch args[0] {
	case "plan":
		err = shardPlan(args[1:])
	case "run":
		err = shardRun(ctx, args[1:])
	case "merge":
		err = shardMerge(args[1:])
	default:
		err = fmt.Errorf("unknown shard subcommand %q (want plan, run or merge)", args[0])
	}
	if err != nil {
		fatal(err)
	}
}

// shardPlan partitions an artifact's scenario grid into a manifest.
func shardPlan(args []string) error {
	fs := flag.NewFlagSet("shard plan", flag.ExitOnError)
	experiment := fs.String("experiment", "", "sweep artifact to shard: fig4, fig5, table4 or table5")
	shards := fs.Int("shards", 2, "number of worker shards")
	out := fs.String("out", "plan.json", "manifest output path")
	model := addModelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opt, err := model.options()
	if err != nil {
		return err
	}
	m, err := buildManifest(*experiment, *shards, opt)
	if err != nil {
		return err
	}
	if err := shard.WriteManifest(*out, m); err != nil {
		return err
	}
	fmt.Printf("planned %s: %d scenarios across %d shards -> %s\n",
		*experiment, m.Total, len(m.Shards), *out)
	return nil
}

// buildManifest plans an artifact's scenario grid into a manifest —
// shared by `shard plan` and the `sweep` service client.
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
		// The estimator set of every shardable sweep artifact, recorded by
		// spec so workers resolve the identical list through the registry.
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

// shardRun evaluates one shard of a plan and writes its result set.
func shardRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("shard run", flag.ExitOnError)
	plan := fs.String("plan", "plan.json", "manifest written by `shard plan`")
	index := fs.Int("shard", 0, "which shard of the plan to run")
	cacheDir := fs.String("cache", "", "shared file-backed result cache directory (optional)")
	out := fs.String("out", "", "result-set output path (default results<shard>.json)")
	parallel := fs.Int("parallel", 0, "concurrent (scenario, estimator) evaluations within this process, the only parallelism (0 = all CPUs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := shard.ReadManifest(*plan)
	if err != nil {
		return err
	}
	sh, err := m.Shard(*index)
	if err != nil {
		return err
	}
	opts := []core.RunnerOption{core.WithParallelism(*parallel)}
	if *cacheDir != "" {
		backend, err := core.NewFileBackend(*cacheDir)
		if err != nil {
			return err
		}
		opts = append(opts, core.WithCacheBackend(backend))
	}
	r, err := m.Runner.NewRunner(opts...)
	if err != nil {
		return err
	}
	rs, err := shard.RunShard(ctx, r, sh)
	if err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("results%d.json", *index)
	}
	if err := shard.WriteResultSet(path, rs); err != nil {
		return err
	}
	fmt.Printf("shard %d/%d: %d scenarios -> %s\n", *index, len(m.Shards), len(rs.Results), path)
	return nil
}

// shardMerge reassembles worker result sets and renders the artifact.
func shardMerge(args []string) error {
	fs := flag.NewFlagSet("shard merge", flag.ExitOnError)
	plan := fs.String("plan", "plan.json", "manifest written by `shard plan`")
	format := fs.String("format", "text", "output format: text, csv or md")
	chartW := fs.Int("chartwidth", 72, "ASCII chart width for figures in text mode")
	chartH := fs.Int("chartheight", 20, "ASCII chart height")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("shard merge needs the result-set files as arguments")
	}
	m, err := shard.ReadManifest(*plan)
	if err != nil {
		return err
	}
	sets := make([]*shard.ResultSet, fs.NArg())
	for i, path := range fs.Args() {
		if sets[i], err = shard.ReadResultSet(path); err != nil {
			return err
		}
	}
	results, err := shard.Merge(m, sets)
	if err != nil {
		return err
	}
	return renderExperiment(m, results, *format, *chartW, *chartH)
}

// renderExperiment renders a sweep artifact from merged results, using the
// manifest to reconstruct the renderer's options — shared by `shard merge`
// and the `sweep` service client, so both emit byte-identical artifacts.
func renderExperiment(m *shard.Manifest, results []core.Result, format string, chartW, chartH int) error {
	opt, err := mergeOptions(m)
	if err != nil {
		return err
	}
	switch m.Experiment {
	case "fig4":
		fig, err := experiments.Figure4FromResults(opt, results)
		if err != nil {
			return err
		}
		return emitFigure(fig, format, chartW, chartH)
	case "fig5":
		fig, err := experiments.Figure5FromResults(opt, results)
		if err != nil {
			return err
		}
		return emitFigure(fig, format, chartW, chartH)
	case "table4":
		t, err := experiments.Table4FromResults(opt, results)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	case "table5":
		t, err := experiments.Table5FromResults(opt, results)
		if err != nil {
			return err
		}
		return emitTable(t, format)
	default:
		return fmt.Errorf("manifest plans unknown experiment %q", m.Experiment)
	}
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
