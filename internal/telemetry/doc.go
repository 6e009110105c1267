// Package telemetry is the run-telemetry layer shared by every part of the
// system that measures anything: the stream drivers (per-pass wall time,
// items/sec, fan-out windows, worker skew), the estimators and baselines
// (sample-set occupancy, live/high-water space words via internal/space),
// the communication-game harness (handoff words per pass), and the
// experiment harness (which snapshots the registry into JSONL run
// journals). It is dependency-free — standard library only — and built
// around two constraints:
//
//  1. Near-zero cost when disabled. Telemetry is off unless Enable has
//     installed the global registry; Global() is then a single atomic
//     pointer load returning nil, every lookup on a nil *Registry returns a
//     nil handle, and every handle method no-ops on a nil receiver.
//     Instrumented code therefore never branches on a "telemetry enabled?"
//     flag of its own — it calls unconditionally. The driver benchmarks
//     bound the disabled overhead at under 2% (see DESIGN.md §4d).
//
//  2. Safe under the broadcast driver's concurrency. All metric types are
//     single atomic words (or arrays of them, for histograms), so estimator
//     shards on different workers can report into the same registry without
//     locks on the hot path.
//
// Four metric shapes cover the quantities the paper's claims are stated in:
// Counter (monotonic totals: items read, pairs discovered), Gauge (last
// value: sample occupancy after a pass), HighWater (peaks: space words,
// queue depth), and Histogram (log₂-bucketed streaming distributions:
// per-pass wall time).
//
// The registry is exposed live over HTTP — expvar JSON at /debug/vars and
// the pprof handlers at /debug/pprof/ — via Listen, wired to the -listen
// flag of cmd/experiments and cmd/cyclecount.
package telemetry
