// Package daemon is the process body adjserved and adjproxy share: load
// the graph catalog, start the optional telemetry listener, serve HTTP
// until SIGINT/SIGTERM, then drain and write the final metrics snapshot.
// Each binary keeps its own flag set and builds its own serve.Server.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"adjstream/internal/serve"
	"adjstream/internal/telemetry"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a slow-loris client cannot hold a connection open for free.
const readHeaderTimeout = 10 * time.Second

// Config holds the settings both binaries take from their flags.
type Config struct {
	// Name prefixes error messages ("adjserved", "adjproxy").
	Name string
	// Listen is the service address; AddrFile, when set, receives the
	// bound address once listening.
	Listen, AddrFile string
	// GraphsDir and Demo select the catalog's graphs (at least one set).
	GraphsDir string
	Demo      bool
	// MergeThreshold and MaxVersions are the catalog's merge policy.
	MergeThreshold, MaxVersions int
	// DrainTimeout bounds how long shutdown waits for in-flight requests.
	DrainTimeout time.Duration
	// TeleAddr, when set, serves /debug/vars and /debug/pprof and makes
	// Run dump a metrics snapshot to stderr on exit.
	TeleAddr string
}

// ServeQueue converts a -queue flag value to serve.Config.Queue. The flag
// reads -1 (any negative) as "the default, 2× workers" and 0 as "no queue,
// reject immediately"; serve.Config reserves 0 for the default and takes a
// negative value as "no queue".
func ServeQueue(flag int) int {
	switch {
	case flag < 0:
		return 0
	case flag == 0:
		return -1
	default:
		return flag
	}
}

// ServerFunc builds the service over the loaded catalog, returning it and the
// startup banner for the bound address.
type ServerFunc func(cat *serve.Catalog) (srv *serve.Server, banner func(addr net.Addr) string, err error)

// Run loads the catalog, starts telemetry, builds the service with
// newServer and serves it until SIGINT/SIGTERM. On the signal it drains:
// readiness fails and new estimation work is rejected, in-flight requests
// finish (bounded by DrainTimeout), then connections close. It returns
// the process exit code: 0 after a clean drain, 1 on a startup or serve
// failure.
func Run(c Config, stdout, stderr io.Writer, newServer ServerFunc) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", c.Name, err)
		return 1
	}
	cat, err := loadCatalog(c)
	if err != nil {
		return fail(err)
	}

	var reg *telemetry.Registry
	if c.TeleAddr != "" {
		ln, err := telemetry.Listen(c.TeleAddr)
		if err != nil {
			return fail(err)
		}
		defer ln.Close()
		reg = telemetry.Global()
		fmt.Fprintf(stdout, "telemetry on http://%s/debug/vars\n", ln.Addr())
	}

	srv, banner, err := newServer(cat)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}

	ln, err := net.Listen("tcp", c.Listen)
	if err != nil {
		return fail(err)
	}
	if c.AddrFile != "" {
		if err := os.WriteFile(c.AddrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintln(stdout, banner(ln.Addr()))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return fail(err)
	case <-ctx.Done():
	}

	// Drain: fail readiness and reject new estimation work first, then
	// wait for in-flight requests before closing connections.
	fmt.Fprintln(stdout, "draining...")
	srv.SetDraining(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), c.DrainTimeout)
	defer cancel()
	if err := srv.DrainWait(drainCtx); err != nil {
		fmt.Fprintf(stderr, "%s: drain timeout, aborting in-flight requests\n", c.Name)
		hs.Close()
	} else if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "%s: %v\n", c.Name, err)
		hs.Close()
	}
	<-errc // Serve has returned http.ErrServerClosed

	if reg != nil {
		fmt.Fprintln(stderr, "final telemetry snapshot:")
		writeSnapshot(stderr, reg)
	}
	fmt.Fprintln(stdout, "bye")
	return 0
}

// loadCatalog builds the catalog from the demo graphs and/or GraphsDir.
func loadCatalog(c Config) (*serve.Catalog, error) {
	cat := serve.NewCatalog()
	cat.SetMergePolicy(c.MergeThreshold, c.MaxVersions)
	if c.Demo {
		if err := serve.LoadDemo(cat); err != nil {
			return nil, err
		}
	}
	if c.GraphsDir != "" {
		n, err := cat.LoadDir(c.GraphsDir)
		if err != nil {
			return nil, err
		}
		if n == 0 && !c.Demo {
			return nil, fmt.Errorf("no edge-list files in %s", c.GraphsDir)
		}
	}
	return cat, nil
}

// writeSnapshot dumps the telemetry registry to w, sorted by metric name.
func writeSnapshot(w io.Writer, reg *telemetry.Registry) {
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s\t%g\n", name, snap[name])
	}
}
