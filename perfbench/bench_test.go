package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binDir holds adjserved built from the enclosing repository.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		panic(err)
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "adjstream/cmd/adjserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building the servers: " + err.Error())
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestShortRuns runs a short (two-second) untraced and traced run of every
// workload and checks that each emits every metric of its kind with its
// unit, answered everything, and matched the library on every recomputed
// answer.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", trace,
					"--bin", binDir, "--work", t.TempDir()}
				if code := mainErr(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				want := cat.EndToEnd
				if trace == "1" {
					want = cat.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if trace == "1" {
					if !strings.Contains(stderr.String(), "spans written to") {
						t.Errorf("no span file reported:\n%s", stderr.String())
					}
				}
			})
		}
	}
}

// TestInputsDeterministic checks that one seed always generates
// byte-identical edge files and request bodies, and another seed does not.
func TestInputsDeterministic(t *testing.T) {
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			a, err := generate(w, 3, 2, trace, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 3, 2, trace, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if a.hash != b.hash {
				t.Errorf("%s trace=%v: seed 3 generated %s then %s", name, trace, a.hash, b.hash)
			}
			for _, g := range graphNames {
				fa, errA := os.ReadFile(filepath.Join(a.graphDir, g+".edges"))
				fb, errB := os.ReadFile(filepath.Join(b.graphDir, g+".edges"))
				if errA != nil || errB != nil || !bytes.Equal(fa, fb) {
					t.Errorf("%s: %s.edges differs between two generations (%v %v)", name, g, errA, errB)
				}
			}
			c, err := generate(w, 4, 2, trace, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if c.hash == a.hash {
				t.Errorf("%s: seeds 3 and 4 generated the same inputs", name)
			}
		}
	}
}

// TestEditLogValid replays the write log against the base graph in the
// order a server applies each batch.
func TestEditLogValid(t *testing.T) {
	in, err := generate(workloads["cold-mix"], 5, 4, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	present := map[[2]int64]bool{}
	for _, e := range in.graphs[gLive].Edges() {
		present[edgeKey(int64(e.U), int64(e.V))] = true
	}
	for i, b := range in.log {
		if len(b.add)+len(b.remove) != batchOps {
			t.Fatalf("batch %d has %d ops", i, len(b.add)+len(b.remove))
		}
		for _, e := range b.add {
			if present[e] || e[0] == e[1] {
				t.Fatalf("batch %d adds %v, already present", i, e)
			}
			present[e] = true
		}
		for _, e := range b.remove {
			if !present[e] {
				t.Fatalf("batch %d removes %v, absent", i, e)
			}
			delete(present, e)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and metrics.json
// in step: same workloads, the same metrics with the same units and
// directions, and for every per-layer metric either the gated end-to-end
// metrics and workloads it should move or the reason none shows it.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bj catalogue
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(cat.Workloads) || len(cat.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.json %d, the driver %d",
			len(bj.Workloads), len(cat.Workloads), len(workloads))
	}
	gated := map[string]bool{}
	for i, w := range cat.Workloads {
		if bj.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json %+v, metrics.json %+v", i, bj.Workloads[i], w)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
		gated[w.Name] = true
	}
	same := func(kind string, a, b []metricDef) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.json %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Unit != b[i].Unit || a[i].Better != b[i].Better || a[i].Bound != b[i].Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.json %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, cat.EndToEnd)
	same("per_layer", bj.PerLayer, cat.PerLayer)
	endToEnd := map[string]bool{}
	for _, m := range cat.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range cat.PerLayer {
		if (len(m.Moves) == 0) == (m.Ungated == "") {
			t.Errorf("per-layer metric %s needs either moves or an ungated reason, not both or neither", m.Name)
		}
		for _, mv := range m.Moves {
			if !endToEnd[mv.Metric] {
				t.Errorf("%s moves %s, which is not an end-to-end metric", m.Name, mv.Metric)
			}
			if len(mv.Workloads) == 0 {
				t.Errorf("%s moves %s on no workload", m.Name, mv.Metric)
			}
			for _, w := range mv.Workloads {
				if !gated[w] {
					t.Errorf("%s moves %s on %s, which BENCHMARK.json does not gate", m.Name, mv.Metric, w)
				}
			}
		}
	}
}

// TestFailedOperationMakesRunIncorrect feeds the checks one 503 answer and
// one transport error and expects the result to be marked incorrect, with
// both counted as failed and neither as a mismatch.
func TestFailedOperationMakesRunIncorrect(t *testing.T) {
	o := &op{class: "tri-k1", kind: "estimate", path: "/v1/estimate"}
	samples := []sample{
		{op: o, status: http.StatusServiceUnavailable, body: []byte(`{"error":{"code":"overloaded"}}`)},
		{op: o, err: context.DeadlineExceeded},
	}
	var tl tally
	tl.attempted.Add(int64(len(samples)))
	newOracle(nil, &tl, io.Discard).checkSamples(samples, func(*sample) bool { return true })
	res, err := resultOf(&tl, map[string]float64{"x": 1}, []metricDef{{Name: "x", Unit: "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || tl.mismatches.Load() != 0 {
		t.Fatalf("correct=%v failed=%d mismatches=%d, want false 2 0", res.Correct, res.Failed, tl.mismatches.Load())
	}
}

// TestCancelledRunFails checks that a run whose context is cancelled
// reports failure (after stopping, and waiting for, what it started).
func TestCancelledRunFails(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: "cold-mix", seed: 1, seconds: 2, bin: binDir, work: t.TempDir()}
	if _, _, err := run(ctx, cfg, cat, &bytes.Buffer{}); err == nil {
		t.Fatal("cancelled run reported success")
	}
}
