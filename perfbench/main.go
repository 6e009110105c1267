// Command perfbench is the repository's served-traffic benchmark. It
// generates seeded inputs (edge-list files and request bodies), spawns the
// real adjserved binary on them, drives it over loopback from this one
// process with at most two connections, checks answers against the
// library, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"}}}
//
// With --trace 0 the metrics are the end-to-end ones of metrics.json; with
// --trace 1 a separate traced run reports the per-layer ones and writes a
// span file. Normally started through run.sh, which builds the binaries:
//
//	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

//go:embed metrics.json
var metricsJSON []byte

// metricDef is one metric of metrics.json. Moves names, for a per-layer
// metric, the end-to-end metrics and workloads it should move; Ungated
// says instead why no workload of BENCHMARK.json shows its effect.
type metricDef struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Moves   []moveDef `json:"moves,omitempty"`
	Ungated string    `json:"ungated,omitempty"`
}

type moveDef struct {
	Metric    string   `json:"metric"`
	Workloads []string `json:"workloads"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type catalogue struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func loadCatalogue() (catalogue, error) {
	var c catalogue
	if err := json.Unmarshal(metricsJSON, &c); err != nil {
		return c, fmt.Errorf("metrics.json: %w", err)
	}
	return c, nil
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string
	work     string
}

// fullSeconds is the run length from which every repetition count is at
// its full value; shorter runs (the self-test's) scale them down.
const fullSeconds = 10

// reps returns how many of n repetitions a run of cfg.seconds makes: all
// of them from fullSeconds on, a proportional share below, at least two.
func (cfg config) reps(n int) int {
	return min(n, max(2, int(float64(n)*cfg.seconds/fullSeconds)))
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seed int64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see metrics.json)")
	fs.Int64Var(&seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 40, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	fs.StringVar(&cfg.bin, "bin", "", "directory holding the adjserved binary")
	fs.StringVar(&cfg.work, "work", "", "scratch directory for inputs, logs and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seed = uint64(seed)
	cfg.trace = trace == 1
	if cfg.bin == "" || cfg.work == "" || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need --bin, --work, --trace 0|1 and --seconds > 0")
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cat, err := loadCatalogue()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, r, err := run(ctx, cfg, cat, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printSummary(stdout, cfg, res, r)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run executes one run of cfg.workload and returns the result line and
// the runner that holds the run's side figures.
func run(ctx context.Context, cfg config, cat catalogue, log io.Writer) (result, *runner, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-t%d", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if err := os.RemoveAll(dir); err != nil {
		return result{}, nil, err
	}
	in, err := generate(workloads[cfg.workload], cfg.seed, cfg.seconds, cfg.trace, dir)
	if err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d inputs sha256 %s\n", cfg.workload, cfg.seed, in.hash)

	r := &runner{cfg: cfg, in: in, dir: dir, log: log, tally: &tally{}}
	var metrics map[string]float64
	if cfg.trace {
		metrics, err = r.traced(ctx)
	} else {
		metrics, err = r.untraced(ctx)
	}
	if err != nil {
		return result{}, nil, err
	}

	want := cat.EndToEnd
	if cfg.trace {
		want = cat.PerLayer
	}
	out, err := resultOf(r.tally, metrics, want)
	return out, r, err
}

// resultOf builds the result line: the run is correct only when no
// operation failed, so a server that rejects, drops or answers wrongly
// part of the load never reports correct figures.
func resultOf(t *tally, metrics map[string]float64, want []metricDef) (result, error) {
	out := result{
		Correct:   t.correct(),
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   make(map[string]metricValue, len(want)),
	}
	if out.Attempted == 0 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	for _, m := range want {
		v, ok := metrics[m.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// printSummary writes a human-readable table of every metric, followed by
// the figures that qualify them: sample counts, failures and mismatches.
func printSummary(w io.Writer, cfg config, res result, r *runner) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# perfbench %s seed %d trace %d\n", cfg.workload, cfg.seed, b2i(cfg.trace))
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-44s %14.6f ratio (%d of %d attempted)\n", "failed_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Fprintf(w, "%-44s %14d count (%d answers recomputed)\n", "mismatches",
		r.tally.mismatches.Load(), r.tally.checked.Load())
	for _, k := range []string{"samples.read", "samples.write", "samples.capacity"} {
		if v, ok := r.side[k]; ok {
			fmt.Fprintf(w, "%-44s %14.0f count\n", k, v)
		}
	}
	fmt.Fprintf(w, "%-44s %14.4f ms\n", "generator lag p95", r.side["lag_p95"])
	if r.side["loadgen.behind"] > 0 {
		fmt.Fprintln(w, "# INVALID RUN: the load generator fell behind its schedule")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
