package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer started; Req ties a client request's span to its op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pay no more than a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int64 // request ids handed out so far
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and a function that closes it.
func (t *tracer) begin(parent uint64, name string) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: -1})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = int64(end)
		t.mu.Unlock()
	}
}

// request records one answered client request whose times s holds as
// offsets from phaseStart.
func (t *tracer) request(parent uint64, o *op, s *sample, phaseStart time.Time) {
	if t == nil {
		return
	}
	base := phaseStart.Sub(t.t0)
	t.mu.Lock()
	t.reqs++
	t.spans = append(t.spans, span{
		ID: uint64(len(t.spans) + 1), Parent: parent, Name: "client." + o.class, Req: t.reqs,
		Start: int64(base + s.sent), End: int64(base + s.done),
	})
	t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
