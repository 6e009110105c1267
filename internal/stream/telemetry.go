package stream

import (
	"time"

	"adjstream/internal/telemetry"
)

// Driver telemetry. Handles are resolved once per driver run (one atomic
// load plus, when enabled, a handful of registry lookups) and then updated
// at pass granularity, so the per-item hot path carries no instrumentation
// at all. With telemetry disabled every handle is nil and each update is a
// nil check — the ≤2% BenchmarkDriver overhead budget of DESIGN.md §4d.
//
// Metric names, per driver ("run" for the sequential driver, "broadcast"
// for the fan-out driver):
//
//	driver.<name>.pass_ns         histogram — wall time per stream pass
//	driver.<name>.items_per_sec   gauge     — throughput of the last pass
//	driver.<name>.items_read      counter   — stream items read
//	driver.<name>.items_delivered counter   — items delivered to copies
//	driver.<name>.passes          counter   — stream traversals completed
//	driver.<name>.copies          counter   — estimator copies completed
//	driver.<name>.batches         counter   — windows iterated (chunks,
//	                                          for the sequential driver)
//	driver.broadcast.pass_skew_ns histogram — per multi-worker pass, the
//	                                          worker wall-time spread
//	                                          (stragglers)
//
// One name is global rather than per driver, because it flags a stream
// property every driver hits the same way:
//
//	stream.driver.item_path_fallbacks counter — runs that used the legacy
//	        []Item walk because the stream's vertex ids exceed uint32 and
//	        it has no columnar chunks (the silent chunks==nil fallback)
type driverTele struct {
	passNS      *telemetry.Histogram
	itemsPerSec *telemetry.Gauge
	itemsRead   *telemetry.Counter
	delivered   *telemetry.Counter
	passes      *telemetry.Counter
	copies      *telemetry.Counter
	batches     *telemetry.Counter
	skew        *telemetry.Histogram
	fallbacks   *telemetry.Counter
}

// teleForDriver binds the handle set for the named driver, or the all-nil
// zero value when telemetry is disabled.
func teleForDriver(name string) driverTele {
	r := telemetry.Global()
	if r == nil {
		return driverTele{}
	}
	prefix := "driver." + name + "."
	return driverTele{
		passNS:      r.Histogram(prefix + "pass_ns"),
		itemsPerSec: r.Gauge(prefix + "items_per_sec"),
		itemsRead:   r.Counter(prefix + "items_read"),
		delivered:   r.Counter(prefix + "items_delivered"),
		passes:      r.Counter(prefix + "passes"),
		copies:      r.Counter(prefix + "copies"),
		batches:     r.Counter(prefix + "batches"),
		skew:        r.Histogram(prefix + "pass_skew_ns"),
		fallbacks:   r.Counter("stream.driver.item_path_fallbacks"),
	}
}

// noteFallback records one driver run that fell back to the []Item walk
// because the stream has no columnar chunks.
func (t driverTele) noteFallback() {
	if t.fallbacks == nil {
		return
	}
	t.fallbacks.Add(1)
}

// startPass returns the pass start time, or the zero time when disabled
// (skipping the clock read entirely).
func (t driverTele) startPass() time.Time {
	if t.passNS == nil {
		return time.Time{}
	}
	return time.Now()
}

// endPass records one completed pass that read items stream items and
// delivered delivered callbacks.
func (t driverTele) endPass(start time.Time, items, delivered int64) {
	if t.passNS == nil {
		return
	}
	el := time.Since(start)
	t.passNS.Observe(int64(el))
	if el > 0 {
		t.itemsPerSec.Set(int64(float64(items) * float64(time.Second) / float64(el)))
	}
	t.itemsRead.Add(items)
	t.delivered.Add(delivered)
	t.passes.Add(1)
}
