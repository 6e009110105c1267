package exp

import (
	"fmt"
	"sync"

	"adjstream/internal/stream"
)

// The experiment harness runs many independent estimator copies over the
// same stream (trials, median amplification, budget searches). runCopies is
// the single choke point through which all of them execute, so the whole
// harness can be A/B-switched between the broadcast driver (one stream read
// per pass, shared by all copies — the default) and the legacy per-copy
// replay driver, and so driver counters accumulate in one place.

var (
	driverMu      sync.Mutex
	driverSel     string // "", "broadcast", or "replay"
	driverCounter stream.DriverStats
	replayCounter stream.DriverStats
)

// SetDriver selects the execution driver for multi-copy experiment runs:
// "broadcast" (the default) or "replay".
func SetDriver(name string) error {
	driverMu.Lock()
	defer driverMu.Unlock()
	switch name {
	case "broadcast", "replay":
		driverSel = name
	default:
		return fmt.Errorf("exp: unknown driver %q (want broadcast or replay)", name)
	}
	return nil
}

// runCopies drives every estimator over s with the selected driver and
// accumulates the driver counters. Per-copy results are identical under
// both drivers (and to sequential stream.Run), so experiment outputs do
// not depend on the driver choice.
func runCopies(s *stream.Stream, ests []stream.Estimator) {
	driverMu.Lock()
	name := driverSel
	driverMu.Unlock()
	var st stream.DriverStats
	switch name {
	case "replay":
		stream.RunParallel(s, ests)
		st = stream.ReplayStats(s, ests)
	default: // "" or "broadcast"
		st = stream.RunBroadcastConfig(s, ests, stream.BroadcastConfig{})
	}
	driverMu.Lock()
	driverCounter.Merge(st)
	replayCounter.Merge(stream.ReplayStats(s, ests))
	driverMu.Unlock()
}

// runOne is runCopies for a single estimator; kept sequential (no fan-out
// machinery) but still counted, so the driver report covers every stream
// traversal the harness performs.
func runOne(s *stream.Stream, e stream.Estimator) {
	stream.Run(s, e)
	st := stream.ReplayStats(s, []stream.Estimator{e})
	driverMu.Lock()
	driverCounter.Merge(st)
	replayCounter.Merge(st)
	driverMu.Unlock()
}

// DriverCounters returns the accumulated driver stats of every runCopies /
// runOne call since the last reset, together with what a pure replay
// execution of the same work would have cost.
func DriverCounters() (used, replayEquivalent stream.DriverStats) {
	driverMu.Lock()
	defer driverMu.Unlock()
	return driverCounter, replayCounter
}

// ResetDriverCounters zeroes the accumulated driver stats.
func ResetDriverCounters() {
	driverMu.Lock()
	defer driverMu.Unlock()
	driverCounter = stream.DriverStats{}
	replayCounter = stream.DriverStats{}
}

// DriverReport renders the accumulated driver counters as a table, printed
// by cmd/experiments alongside the space-words columns of the experiment
// tables: the same reporting path, one level up.
func DriverReport() *Table {
	used, replay := DriverCounters()
	driverMu.Lock()
	name := driverSel
	driverMu.Unlock()
	if name == "" {
		name = "broadcast"
	}
	savings := "1.00"
	if used.StreamItemsRead > 0 {
		savings = f2(float64(replay.StreamItemsRead) / float64(used.StreamItemsRead))
	}
	return &Table{
		ID:    "D1",
		Title: "Execution driver counters (" + name + ")",
		Claim: "the broadcast driver reads each stream once per pass regardless of copy count",
		Header: []string{
			"copies run", "stream items read", "items delivered", "batches",
			"replay-equivalent reads", "read reduction ×",
		},
		Rows: [][]string{{
			d(int64(used.Copies)), d(used.StreamItemsRead), d(used.ItemsDelivered),
			d(used.Batches), d(replay.StreamItemsRead), savings,
		}},
	}
}
