package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is the spawned adjserved process a workload is served from.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
}

// startServer spawns adjserved over graphDir, with its output captured
// under logDir, and returns once it answers /healthz with its catalog
// loaded. On error the process is stopped.
func startServer(ctx context.Context, bin, graphDir, logDir string) (*server, error) {
	addrFile := filepath.Join(logDir, "adjserved.addr")
	_ = os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(logDir, "adjserved.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	// The server runs at nice 5 so that on a saturated host the load
	// generator, which needs little CPU, still sends on schedule.
	cmd := exec.Command("nice", "-n", "5", filepath.Join(bin, "adjserved"),
		"-graphs", graphDir, "-listen", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start adjserved: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: stop() sends the signal
		close(s.done)
	}()
	if err := s.waitAddr(ctx, addrFile); err != nil {
		s.stop()
		return nil, err
	}
	if err := waitHealthy(ctx, s.url, len(graphNames)); err != nil {
		s.stop()
		return nil, fmt.Errorf("adjserved: %w", err)
	}
	return s, nil
}

// waitAddr waits for the process to write its bound address to path.
func (s *server) waitAddr(ctx context.Context, path string) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			s.url = "http://" + strings.TrimSpace(string(b))
			return nil
		}
		select {
		case <-s.done:
			return fmt.Errorf("adjserved exited during start-up (see adjserved.log)")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("adjserved did not report its address")
}

type health struct {
	Status   string `json:"status"`
	Graphs   int    `json:"graphs"`
	InFlight int    `json:"in_flight"`
	Waiting  int    `json:"waiting"`
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

func getHealth(url string) (health, error) {
	var h health
	resp, err := probeClient.Get(url + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

func waitHealthy(ctx context.Context, url string, graphs int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := getHealth(url)
		if err == nil && h.Status == "ok" && h.Graphs == graphs {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy: %v %+v", err, h)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop terminates the process and waits until it has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuTicks returns the process's utime+stime, in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	fields := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+2:]))
	var total int64
	for _, i := range []int{11, 12} {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every mainstream Linux configuration.
const clockTick = 10 * time.Millisecond

// peakRSSMB returns VmHWM, the process's peak resident set.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if fields := strings.Fields(line); len(fields) > 1 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
