package stream

// Tests for the driver counters (each broadcast worker reports its share,
// summed after the pass barrier) and for the driver telemetry. These run
// under `make race` / the race CI job, which is what actually asserts that
// concurrent runs over one stream and one registry are sound.

import (
	"sync"
	"testing"

	"adjstream/internal/telemetry"
)

// TestDriverStatsAtomicCounters drives many concurrent broadcast runs over
// the same stream and checks every run's counters exactly. Workers count
// their own deliveries and windows; under -race this test is the assertion
// that the per-worker reporting is data-race-free.
func TestDriverStatsAtomicCounters(t *testing.T) {
	g := randomGraph(40, 0.2, 11)
	s := Random(g, 7)
	const runs, k = 8, 16
	cfg := BroadcastConfig{Window: 64, Workers: 4}
	var wg sync.WaitGroup
	stats := make([]DriverStats, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ests := make([]Estimator, k)
			for i := range ests {
				ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
			}
			stats[r] = RunBroadcastConfig(s, ests, cfg)
		}(r)
	}
	wg.Wait()
	var windowsPerWorker int64
	for _, c := range s.Chunks() {
		windowsPerWorker += int64((len(c.Owners) + cfg.Window - 1) / cfg.Window)
	}
	batchesPerPass := windowsPerWorker * int64(cfg.Workers)
	for r, st := range stats {
		if st.Copies != k || st.Passes != 2 {
			t.Fatalf("run %d: stats = %+v", r, st)
		}
		if want := int64(2 * s.Len()); st.StreamItemsRead != want {
			t.Fatalf("run %d: StreamItemsRead = %d, want %d", r, st.StreamItemsRead, want)
		}
		if want := int64(2 * s.Len() * k); st.ItemsDelivered != want {
			t.Fatalf("run %d: ItemsDelivered = %d, want %d", r, st.ItemsDelivered, want)
		}
		if want := 2 * batchesPerPass; st.Batches != want {
			t.Fatalf("run %d: Batches = %d, want %d", r, st.Batches, want)
		}
	}
}

// TestDriverTelemetry checks the metrics both drivers report into a live
// registry: read/delivery counters, pass counts and timings, copies, and
// one worker-skew observation per multi-worker pass (none for inline
// passes, none at all while telemetry is off).
func TestDriverTelemetry(t *testing.T) {
	defer telemetry.Disable()
	r := telemetry.Enable()
	r.Reset()
	g := randomGraph(30, 0.2, 3)
	s := Random(g, 5)

	e := &sumEstimator{tracer: tracer{passes: 2}}
	Run(s, e)
	snap := r.Snapshot()
	if got := snap["driver.run.items_read"]; got != float64(2*s.Len()) {
		t.Fatalf("run items_read = %v, want %d", got, 2*s.Len())
	}
	if got := snap["driver.run.passes"]; got != 2 {
		t.Fatalf("run passes = %v", got)
	}
	if got := snap["driver.run.copies"]; got != 1 {
		t.Fatalf("run copies = %v", got)
	}
	if got := snap["driver.run.pass_ns.count"]; got != 2 {
		t.Fatalf("pass_ns count = %v", got)
	}

	const k = 6
	ests := make([]Estimator, k)
	for i := range ests {
		ests[i] = &sumEstimator{tracer: tracer{passes: 2}}
	}
	st := RunBroadcastConfig(s, ests, BroadcastConfig{Window: 32, Workers: 3})
	snap = r.Snapshot()
	if got := snap["driver.broadcast.items_read"]; got != float64(st.StreamItemsRead) {
		t.Fatalf("broadcast items_read = %v, want %d", got, st.StreamItemsRead)
	}
	if got := snap["driver.broadcast.items_delivered"]; got != float64(st.ItemsDelivered) {
		t.Fatalf("broadcast items_delivered = %v, want %d", got, st.ItemsDelivered)
	}
	if got := snap["driver.broadcast.batches"]; got != float64(st.Batches) {
		t.Fatalf("broadcast batches = %v, want %d", got, st.Batches)
	}
	if got := snap["driver.broadcast.copies"]; got != k {
		t.Fatalf("broadcast copies = %v", got)
	}
	if snap["driver.broadcast.items_per_sec"] <= 0 {
		t.Fatal("items_per_sec not set")
	}
	const skew = "driver.broadcast.pass_skew_ns.count"
	if got := snap[skew]; got != 2 {
		t.Fatalf("%s = %v after a 2-pass 3-worker run, want 2", skew, got)
	}
	RunBroadcastConfig(s, []Estimator{&sumEstimator{tracer: tracer{passes: 2}}}, BroadcastConfig{Workers: 3})
	if got := r.Snapshot()[skew]; got != 2 {
		t.Fatalf("%s = %v after an inline (one-copy) run, want still 2", skew, got)
	}

	telemetry.Disable()
	RunBroadcastConfig(s, ests, BroadcastConfig{Workers: 3})
	r = telemetry.Enable()
	if got := r.Snapshot()[skew]; got != 0 {
		t.Fatalf("%s = %v after a run with telemetry off, want 0", skew, got)
	}
}

// TestBroadcastTelemetryConcurrent has several broadcast runs reporting
// into one shared registry at once (the -listen scenario); totals must add
// up and, under -race, the shared handles must be clean.
func TestBroadcastTelemetryConcurrent(t *testing.T) {
	defer telemetry.Disable()
	r := telemetry.Enable()
	r.Reset()
	g := randomGraph(30, 0.2, 9)
	s := Random(g, 1)
	const runs, k = 6, 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ests := make([]Estimator, k)
			for j := range ests {
				ests[j] = &sumEstimator{tracer: tracer{passes: 2}}
			}
			RunBroadcastConfig(s, ests, BroadcastConfig{Window: 128, Workers: 2})
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if want := float64(runs * 2 * s.Len()); snap["driver.broadcast.items_read"] != want {
		t.Fatalf("items_read = %v, want %v", snap["driver.broadcast.items_read"], want)
	}
	if want := float64(runs * k * 2 * s.Len()); snap["driver.broadcast.items_delivered"] != want {
		t.Fatalf("items_delivered = %v, want %v", snap["driver.broadcast.items_delivered"], want)
	}
	if want := float64(runs * k); snap["driver.broadcast.copies"] != want {
		t.Fatalf("copies = %v, want %v", snap["driver.broadcast.copies"], want)
	}
}
