package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// startServer runs the binary's run() in a goroutine on an ephemeral port
// and returns the bound base URL plus a channel carrying the exit code.
func startServer(t *testing.T, extraArgs ...string) (baseURL string, done chan int, stdout, stderr *bytes.Buffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{
		"-listen", "localhost:0",
		"-addr-file", addrFile,
		"-demo",
		"-drain-timeout", "5s",
	}, extraArgs...)
	stdout, stderr = &bytes.Buffer{}, &bytes.Buffer{}
	done = make(chan int, 1)
	go func() { done <- run(args, stdout, stderr) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			return "http://" + string(b), done, stdout, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never wrote addr file; stderr: %s", stderr)
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with code %d; stderr: %s", code, stderr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestServeEndToEnd boots the real binary, exercises the API over TCP, and
// shuts it down with the signal path the deployment would use.
func TestServeEndToEnd(t *testing.T) {
	base, done, stdout, stderr := startServer(t, "-workers", "2")

	// Readiness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}

	// Catalog: the demo graphs are present.
	resp, err = http.Get(base + "/v1/graphs")
	if err != nil {
		t.Fatalf("GET /v1/graphs: %v", err)
	}
	var graphs struct {
		Graphs []struct {
			Name string `json:"name"`
			M    int64  `json:"m"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&graphs); err != nil {
		t.Fatalf("decode graphs: %v", err)
	}
	resp.Body.Close()
	if len(graphs.Graphs) != 4 {
		t.Fatalf("got %d demo graphs, want 4: %+v", len(graphs.Graphs), graphs)
	}

	// An exact count over the demo catalog: 64 disjoint triangles.
	resp, err = http.Post(base+"/v1/estimate", "application/json",
		strings.NewReader(`{"graph":"triangles64","algorithm":"exact"}`))
	if err != nil {
		t.Fatalf("POST /v1/estimate: %v", err)
	}
	var est struct {
		Estimate float64 `json:"estimate"`
		Passes   int     `json:"passes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatalf("decode estimate: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || est.Estimate != 64 {
		t.Fatalf("estimate = %d %+v, want 200 with 64 triangles", resp.StatusCode, est)
	}

	// Distinguish on a triangle-free graph.
	resp, err = http.Post(base+"/v1/distinguish", "application/json",
		strings.NewReader(`{"graph":"fourcycles64","cycle_len":3,"sample_size":256,"seed":5}`))
	if err != nil {
		t.Fatalf("POST /v1/distinguish: %v", err)
	}
	var dis struct {
		Found *bool `json:"found"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dis); err != nil {
		t.Fatalf("decode distinguish: %v", err)
	}
	resp.Body.Close()
	if dis.Found == nil || *dis.Found {
		t.Fatalf("distinguish triangles in fourcycles64 = %v, want found=false", dis.Found)
	}

	// Graceful shutdown on SIGTERM: run() must return 0.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not shut down after SIGTERM; stdout: %s", stdout)
	}
	if !strings.Contains(stdout.String(), "draining...") {
		t.Errorf("shutdown did not announce drain; stdout: %s", stdout)
	}
}

// TestServeGraphsDir serves a real edge-list directory.
func TestServeGraphsDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "tri.edges"), []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-listen", "localhost:0", "-addr-file", addrFile,
			"-graphs", dir, "-drain-timeout", "2s",
		}, &stdout, &stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var base string
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no addr file; stderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Post(base+"/v1/estimate", "application/json",
		strings.NewReader(`{"graph":"tri","algorithm":"exact"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var est struct {
		Estimate float64 `json:"estimate"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&est); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if est.Estimate != 1 {
		t.Fatalf("estimate = %v, want 1", est.Estimate)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no shutdown after SIGTERM")
	}
}

// lockedBuffer is a Writer safe to read while the server goroutine is
// still writing to it (startServer's bare bytes.Buffer is only read after
// shutdown).
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestCacheSmoke is the `make cache-smoke` entry point: boot adjserved
// with the demo catalog and telemetry enabled, issue the same request
// twice, and assert the repeat was answered from the result cache — via
// the X-Cache header, the live /debug/vars counters, and the final
// telemetry snapshot dumped on shutdown.
// TestModelSmoke is the `make model-smoke` service half: an arbitrary-order
// estimate over the real binary round-trips with the model echoed, hits the
// cache on repeat, and stays distinct from the adjacency-list entry space.
func TestModelSmoke(t *testing.T) {
	base, done, _, stderr := startServer(t, "-workers", "2")

	const body = `{"graph":"fourcycles64","model":"arbitrary","algorithm":"arb-threepass-fourcycle","sample_prob":1,"seed":3}`
	var bodies [2][]byte
	var outcomes [2]string
	for n := 0; n < 2; n++ {
		resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %d: %v", n, err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d err %v body %s", n, resp.StatusCode, err, b)
		}
		bodies[n], outcomes[n] = b, resp.Header.Get("X-Cache")
	}
	if outcomes[0] != "miss" || outcomes[1] != "hit" {
		t.Fatalf("X-Cache = %v, want [miss hit]", outcomes)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	var est struct {
		Estimate float64 `json:"estimate"`
		Model    string  `json:"model"`
		Passes   int     `json:"passes"`
		Driver   string  `json:"driver"`
	}
	if err := json.Unmarshal(bodies[0], &est); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if est.Estimate != 64 || est.Model != "arbitrary" || est.Passes != 3 || est.Driver != "" {
		t.Fatalf("arbitrary estimate = %+v, want 64 four-cycles over 3 passes, model echoed, no driver", est)
	}

	// An adjacency-list run of the same graph lands in its own cache entry:
	// first request is a miss, not a cross-model hit.
	resp, err := http.Post(base+"/v1/estimate", "application/json",
		strings.NewReader(`{"graph":"fourcycles64","algorithm":"exact","cycle_len":4,"seed":3}`))
	if err != nil {
		t.Fatalf("POST AL: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("AL run: status %d X-Cache %q, want 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no shutdown after SIGTERM")
	}
}

func TestCacheSmoke(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-listen", "localhost:0", "-addr-file", addrFile,
			"-demo", "-workers", "2", "-drain-timeout", "5s",
			"-telemetry", "localhost:0",
		}, stdout, stderr)
	}()

	deadline := time.Now().Add(10 * time.Second)
	var base string
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no addr file; stderr: %s", stderr)
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with code %d; stderr: %s", code, stderr)
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The telemetry line is printed before the addr file is written, so it
	// is present by now.
	out := stdout.String()
	i := strings.Index(out, "telemetry on http://")
	if i < 0 {
		t.Fatalf("no telemetry address in stdout: %s", out)
	}
	teleURL := strings.TrimSpace(out[i+len("telemetry on ") : strings.IndexByte(out[i:], '\n')+i])

	// Same request twice: the repeat must be a cache hit with an identical
	// body.
	const body = `{"graph":"triangles64","algorithm":"exact","seed":1}`
	var bodies [2][]byte
	var outcomes [2]string
	for n := 0; n < 2; n++ {
		resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %d: %v", n, err)
		}
		bodies[n], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d err %v", n, resp.StatusCode, err)
		}
		outcomes[n] = resp.Header.Get("X-Cache")
	}
	if outcomes[0] != "miss" || outcomes[1] != "hit" {
		t.Fatalf("X-Cache = %v, want [miss hit]", outcomes)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", bodies[0], bodies[1])
	}

	// The live metrics endpoint reflects the hit.
	resp, err := http.Get(teleURL)
	if err != nil {
		t.Fatalf("GET %s: %v", teleURL, err)
	}
	var vars struct {
		Adjstream map[string]float64 `json:"adjstream"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	resp.Body.Close()
	if vars.Adjstream["serve.cache.hits"] < 1 {
		t.Errorf("serve.cache.hits = %v, want >= 1 (snapshot: %v)",
			vars.Adjstream["serve.cache.hits"], vars.Adjstream)
	}
	if vars.Adjstream["serve.cache.misses"] < 1 {
		t.Errorf("serve.cache.misses = %v, want >= 1", vars.Adjstream["serve.cache.misses"])
	}

	// Graceful shutdown dumps the final snapshot, cache counters included.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no shutdown after SIGTERM")
	}
	if !strings.Contains(stderr.String(), "serve.cache.hits") {
		t.Errorf("final snapshot missing cache counters; stderr: %s", stderr)
	}
}

// TestIngestSmoke is the `make ingest-smoke` entry point: boot adjserved
// with a small merge threshold, stream edge batches into a demo graph,
// and assert staging, idempotent replay, the threshold merge, the flush
// merge, version-pinned estimates, and the ingest telemetry counters —
// end-to-end over TCP, through shutdown.
func TestIngestSmoke(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addr")
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-listen", "localhost:0", "-addr-file", addrFile,
			"-demo", "-workers", "2", "-drain-timeout", "5s",
			"-merge-threshold", "4", "-max-versions", "8",
			"-telemetry", "localhost:0",
		}, stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var base string
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			base = "http://" + string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no addr file; stderr: %s", stderr)
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with code %d; stderr: %s", code, stderr)
		case <-time.After(5 * time.Millisecond):
		}
	}

	ingest := func(body string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+"/v1/graphs/triangles64/edges", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST edges: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, raw)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		return m
	}
	estimate := func() (count, version float64) {
		t.Helper()
		resp, err := http.Post(base+"/v1/estimate", "application/json",
			strings.NewReader(`{"graph":"triangles64","algorithm":"exact","seed":1}`))
		if err != nil {
			t.Fatalf("POST estimate: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		c, _ := m["estimate"].(float64)
		v, _ := m["graph_version"].(float64)
		return c, v
	}

	// Baseline: 64 triangles at version 1.
	if c, v := estimate(); c != 64 || v != 1 {
		t.Fatalf("baseline estimate = %v at version %v, want 64 at 1", c, v)
	}

	// Two staged ops: below the threshold, nothing published.
	m := ingest(`{"batch_id":"s1","add":[[500,501],[501,502]]}`)
	if m["merged"] == true || m["pending_ops"] != float64(2) || m["graph_version"] != float64(1) {
		t.Fatalf("stage = %v, want 2 pending at version 1", m)
	}
	// Replaying the same batch id changes nothing.
	if m = ingest(`{"batch_id":"s1","add":[[500,501],[501,502]]}`); m["duplicate"] != true {
		t.Fatalf("replay = %v, want duplicate=true", m)
	}
	if c, v := estimate(); c != 64 || v != 1 {
		t.Fatalf("estimate after staging = %v at version %v, want 64 at 1 (staged ops leaked)", c, v)
	}

	// Two more ops hit -merge-threshold 4: version 2 publishes with a new
	// triangle closing the 500-501-502 path.
	m = ingest(`{"batch_id":"s2","add":[[502,500],[502,503]]}`)
	if m["merged"] != true || m["graph_version"] != float64(2) {
		t.Fatalf("threshold merge = %v, want merged at version 2", m)
	}
	if c, v := estimate(); c != 65 || v != 2 {
		t.Fatalf("post-merge estimate = %v at version %v, want 65 at 2", c, v)
	}

	// A flush batch publishes immediately: removing the extra chord.
	m = ingest(`{"batch_id":"s3","remove":[[502,503]],"flush":true}`)
	if m["merged"] != true || m["graph_version"] != float64(3) {
		t.Fatalf("flush merge = %v, want merged at version 3", m)
	}
	if c, v := estimate(); c != 65 || v != 3 {
		t.Fatalf("post-flush estimate = %v at version %v, want 65 at 3", c, v)
	}

	// The detail resource tracks the history.
	resp, err := http.Get(base + "/v1/graphs/triangles64")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Version  uint64   `json:"version"`
		Retained []uint64 `json:"retained_versions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.Version != 3 || len(detail.Retained) != 3 {
		t.Fatalf("detail = %+v, want version 3 retaining 3 versions", detail)
	}

	// Shutdown's final telemetry snapshot carries the ingest counters.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no shutdown after SIGTERM")
	}
	for _, metric := range []string{"serve.ingest.batches", "serve.ingest.duplicates", "serve.ingest.merges"} {
		if !strings.Contains(stderr.String(), metric) {
			t.Errorf("final snapshot missing %s; stderr: %s", metric, stderr)
		}
	}
}

// TestBadFlags covers the usage-error exits.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-demo", "positional"}, &out, &out); code != 2 {
		t.Errorf("positional arg: code = %d, want 2", code)
	}
	out.Reset()
	if code := run(nil, &out, &out); code != 2 {
		t.Errorf("no graphs: code = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "no graphs") {
		t.Errorf("missing usage hint: %s", out.String())
	}
	out.Reset()
	if code := run([]string{"-graphs", "/nonexistent-dir-xyz"}, &out, &out); code != 1 {
		t.Errorf("empty graphs dir: code = %d, want 1", code)
	}
}

// TestOperationsDocCoversFlags asserts every flag the binary accepts is
// documented in OPERATIONS.md (as `-name`), so the operator guide cannot
// silently fall behind the flag set.
func TestOperationsDocCoversFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	run([]string{"-h"}, &stdout, &stderr)
	doc, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatalf("read OPERATIONS.md: %v", err)
	}
	flags := regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(stderr.String(), -1)
	if len(flags) < 10 {
		t.Fatalf("parsed only %d flags from usage output:\n%s", len(flags), stderr.String())
	}
	for _, m := range flags {
		if !bytes.Contains(doc, []byte("`-"+m[1]+"`")) {
			t.Errorf("flag -%s is not documented in OPERATIONS.md", m[1])
		}
	}
}

// bootServer runs run() with args on an ephemeral port and waits for the
// startup banner (printed after the addr file is written). Output goes to
// lockedBuffers, so the test may read them while the server writes.
func bootServer(t *testing.T, args ...string) (base, banner string, done chan int, stderr *lockedBuffer) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	stdout := &lockedBuffer{}
	stderr = &lockedBuffer{}
	done = make(chan int, 1)
	args = append([]string{"-listen", "localhost:0", "-addr-file", addrFile, "-demo", "-drain-timeout", "5s"}, args...)
	go func() { done <- run(args, stdout, stderr) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := os.ReadFile(addrFile)
		if out := stdout.String(); len(b) > 0 && strings.Contains(out, "serving ") {
			return "http://" + string(b), strings.TrimSpace(out[strings.Index(out, "serving "):]), done, stderr
		}
		if time.Now().After(deadline) {
			t.Fatalf("no banner; stderr: %s", stderr)
		}
		select {
		case code := <-done:
			t.Fatalf("server exited early with code %d; stderr: %s", code, stderr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stopServer drains the server with SIGTERM and waits for run() to return.
// It first waits for an answer from base: run() installs its signal
// handler before it starts serving, and a SIGTERM before that would end
// the test process.
func stopServer(t *testing.T, base string, done chan int, stderr *lockedBuffer) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("self-SIGTERM: %v", err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit code %d; stderr: %s", code, stderr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
}

// TestQueueFlag checks that -queue means what its usage text says: the
// default queues 2× workers, and 0 rejects at once when every worker is
// busy.
func TestQueueFlag(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		base, banner, done, stderr := bootServer(t, "-workers", "2")
		if !strings.Contains(banner, "(workers 2, queue 4)") {
			t.Errorf("banner %q, want queue 4 (2× workers)", banner)
		}
		stopServer(t, base, done, stderr)
	})
	t.Run("zero", func(t *testing.T) {
		base, banner, done, stderr := bootServer(t, "-workers", "1", "-queue", "0")
		if !strings.Contains(banner, "(workers 1, queue 0)") {
			t.Errorf("banner %q, want queue 0", banner)
		}
		// Occupy the only worker with a long run (thousands of copies),
		// cancelled through the client connection once the check is done.
		ctx, cancel := context.WithCancel(context.Background())
		slowDone := make(chan struct{})
		go func() {
			defer close(slowDone)
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/estimate", strings.NewReader(
				`{"graph":"er400","algorithm":"twopass-triangle","sample_size":256,"copies":5001,"seed":1}`))
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		defer func() { cancel(); <-slowDone }()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			var h struct {
				InFlight int `json:"in_flight"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if h.InFlight == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the long run never took the worker")
			}
			time.Sleep(5 * time.Millisecond)
		}
		start := time.Now()
		resp, err := http.Post(base+"/v1/estimate", "application/json",
			strings.NewReader(`{"graph":"triangles64","algorithm":"exact"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d with the only worker busy and -queue 0, want 429", resp.StatusCode)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("429 took %v, want an immediate rejection", d)
		}
		cancel()
		<-slowDone
		stopServer(t, base, done, stderr)
	})
}
