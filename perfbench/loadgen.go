package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// lanes is the number of client connections: one per CPU, at most two, so
// the load generator never holds more connections than the host has CPUs.
var lanes = min(runtime.NumCPU(), 2)

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     lanes,
		MaxIdleConnsPerHost: lanes,
		DisableCompression:  true,
	}}
}

// sample is the outcome of one sent op. Times are offsets from the phase
// start; due is the scheduled send time in an open loop and the actual
// send time in a closed one.
type sample struct {
	op     *op
	due    time.Duration
	sent   time.Duration
	done   time.Duration
	status int
	cache  string // X-Cache response header
	body   []byte
	err    error
}

func (s *sample) latency() time.Duration { return s.done - s.due }

// ok reports a 2xx answer that arrived.
func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// send issues one op and fills in s.
func send(ctx context.Context, c *http.Client, base string, o *op, s *sample, t0 time.Time) {
	s.op = o
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		s.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	s.sent = time.Since(t0)
	resp, err := c.Do(req)
	if err != nil {
		s.err = err
		s.done = time.Since(t0)
		return
	}
	s.body, s.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Since(t0)
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
}

// openResult is one open-loop phase.
type openResult struct {
	samples    []sample
	lag        []time.Duration // generator lateness per op
	backlogEnd int             // ops queued or in flight when the window closed
}

// openLoop sends ops at their due times over the lanes, whatever the
// server's pace: a dispatcher enqueues each op when it falls due and the
// lane workers send them in order. Latency counts from the due time, so
// time spent queued behind a slow answer counts against the server.
// Requests not answered within grace after the window are cancelled and
// count as failed.
func openLoop(ctx context.Context, c *http.Client, base string, ops []op, window time.Duration, tr *tracer, parent uint64) openResult {
	res := openResult{samples: make([]sample, len(ops)), lag: make([]time.Duration, len(ops))}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Buffered to the number of sends, so the dispatcher never blocks and
	// its lateness measures the generator alone.
	queue := make(chan int, len(ops))
	var inflight atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		for i := range ops {
			if d := time.Until(t0.Add(ops[i].due)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			res.lag[i] = time.Since(t0) - ops[i].due
			queue <- i
		}
	}()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &res.samples[i]
				s.due = ops[i].due
				if ctx.Err() != nil {
					s.op, s.err = &ops[i], ctx.Err()
					continue
				}
				inflight.Add(1)
				send(ctx, c, base, &ops[i], s, t0)
				inflight.Add(-1)
				tr.request(parent, &ops[i], s, t0)
			}
		}()
	}

	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(time.Until(t0.Add(window))):
	}
	res.backlogEnd = len(queue) + int(inflight.Load())
	select {
	case <-finished:
	case <-time.After(time.Until(t0.Add(window + grace))):
		cancel()
		<-finished
	}
	for i := range res.samples {
		s := &res.samples[i]
		if s.op == nil || (s.err != nil && ctx.Err() != nil) || s.done > window+grace {
			s.op = &ops[i]
			if s.err == nil {
				s.err = context.DeadlineExceeded
			}
		}
	}
	return res
}

// closedLoop sends ops back to back from n clients for dur: each client
// sends its next op only after the previous answer. It returns the
// samples sent and the time until the last answer.
func closedLoop(ctx context.Context, c *http.Client, base string, ops []op, n int, dur time.Duration) ([]sample, time.Duration) {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for l := 0; l < n; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &samples[i]
				s.due = time.Since(t0)
				send(ctx, c, base, &ops[i], s, t0)
			}
		}()
	}
	wg.Wait()
	samples = samples[:min(int(next.Load()), len(ops))]
	var last time.Duration
	for i := range samples {
		last = max(last, samples[i].done)
	}
	return samples, last
}

// healthMonitor samples the server's /healthz until stopped.
type healthMonitor struct {
	stop     chan struct{}
	done     chan struct{}
	n        int
	waiting  int64
	inflight int64
}

func startHealthMonitor(srv *server) *healthMonitor {
	m := &healthMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			h, err := getHealth(srv.url)
			if err != nil {
				continue
			}
			m.n++
			m.waiting += int64(h.Waiting)
			m.inflight += int64(h.InFlight)
		}
	}()
	return m
}

// finish stops sampling and returns the mean waiting and in-flight
// request counts.
func (m *healthMonitor) finish() (waiting, inflight float64) {
	close(m.stop)
	<-m.done
	if m.n == 0 {
		return 0, 0
	}
	return float64(m.waiting) / float64(m.n), float64(m.inflight) / float64(m.n)
}
