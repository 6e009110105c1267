// Package stream implements the adjacency list streaming model of the paper:
// the input graph arrives as a sequence of ordered pairs (owner, neighbor);
// every edge {u,v} appears exactly twice, once in each endpoint's adjacency
// list; and all pairs sharing an owner are contiguous. Within a list, and
// across lists, the order is arbitrary (adversarial) unless a random order
// is requested explicitly.
//
// The package provides stream construction from a graph under controllable
// orders, validation of the model's promise, multi-pass drivers with
// item-at-a-time callbacks, and a text serialization.
//
// # Drivers
//
// [Run] drives one Algorithm over one stream, pass by pass. Multi-copy runs
// (median amplification, trials) have two drivers with identical per-copy
// results: [RunParallel] replays the stream once per copy, while
// [RunBroadcast] reads the stream once per pass and fans each window out to
// every copy — the [DriverStats] it returns quantify the read reduction.
// Run, [RunSequentialContext] and RunBroadcast share one pass loop and one
// chunk walk; replay is Run once per copy.
//
// # Telemetry
//
// When the global registry of internal/telemetry is enabled, the drivers
// record per-pass wall times, items/sec, delivery and window counters, and
// the broadcast driver's per-pass worker skew under "driver.run.*" and
// "driver.broadcast.*". With telemetry disabled (the default) the
// instrumentation is nil-handle no-ops, off the per-item path entirely,
// and no clock is read.
package stream
