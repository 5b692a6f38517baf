// Command sunfloor-server runs SunFloor 3D topology synthesis as a service:
// an HTTP/JSON daemon in front of the engine with a content-addressed
// design-point cache, a bounded job queue and one process-wide fair-share
// scheduler (see internal/server for the subsystem and the HTTP surface).
//
// Usage:
//
//	sunfloor-server [-addr :8377] [-cache-dir DIR] [flags]
//
// Equal requests — same design, same result-affecting options — are answered
// from the cache or deduplicated onto one in-flight synthesis, whichever
// client, process or restart produced the entry: point -cache-dir at a
// shared directory and CLI runs (sunfloor3d -cache-dir) and daemon restarts
// reuse each other's results. Responses are the engine's canonical
// serialisation, byte-identical to a local run of the same request.
//
// A quick session against a running daemon:
//
//	curl -s localhost:8377/healthz
//	curl -s -X POST localhost:8377/v1/synthesize?wait=1 \
//	     -d '{"gen":"shape=hotspot,cores=24,layers=3,seed=11,hubs=2"}'
//	curl -s localhost:8377/v1/cache/stats
//
// SIGINT or SIGTERM shuts the daemon down gracefully: intake stops, queued
// and running jobs get -drain-timeout to finish, stragglers are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sunfloor3d/internal/server"
)

// Connection timeouts of the daemon. A client has readHeaderTimeout to send
// a request's headers and idleTimeout to start the next request on a
// keep-alive connection; a slower client is disconnected instead of holding
// the connection forever. There is deliberately no write timeout: a ?wait=1
// or /stream response lasts as long as its synthesis.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(sigCtx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "sunfloor-server: %v\n", err)
		os.Exit(1)
	}
}

// newHTTPServer returns the daemon's HTTP server for handler h with the given
// header and idle timeouts (run passes readHeaderTimeout and idleTimeout).
func newHTTPServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

// run is the whole daemon lifecycle: parse flags, listen, serve until ctx is
// cancelled (the signal context in production), then drain gracefully. When
// ready is non-nil the bound listener address is sent on it once the daemon
// accepts connections — the integration test listens on port 0.
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("sunfloor-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8377", "listen address")
		cacheDir   = fs.String("cache-dir", "", "on-disk design-point cache directory (empty = memory-only cache)")
		memEntries = fs.Int("mem-entries", 0, "in-memory cache capacity in entries (0 = default)")
		queueDepth = fs.Int("queue", 0, "job queue depth; submissions beyond it get 503 (0 = default)")
		workers    = fs.Int("workers", 0, "concurrently synthesized jobs (0 = default)")
		capacity   = fs.Int("capacity", 0, "evaluation slots of the shared fair-share scheduler (0 = one per CPU)")
		retain     = fs.Int("retain", 0, "finished jobs kept queryable (0 = default)")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := log.New(stderr, "sunfloor-server: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		CacheDir:   *cacheDir,
		MemEntries: *memEntries,
		QueueDepth: *queueDepth,
		Workers:    *workers,
		Capacity:   *capacity,
		RetainJobs: *retain,
	})
	if err != nil {
		return err
	}

	httpSrv := newHTTPServer(srv, readHeaderTimeout, idleTimeout)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	cache := "memory-only"
	if *cacheDir != "" {
		cache = fmt.Sprintf("disk at %s", *cacheDir)
	}
	logger.Printf("listening on %s (cache %s, scheduler capacity %d)",
		ln.Addr(), cache, srv.Scheduler().Capacity())
	if ready != nil {
		ready <- ln.Addr()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Printf("shutting down (draining for up to %s)", *drain)
	case err := <-errCh:
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("job drain: %v", err)
	}
	st := srv.Cache().Stats()
	logger.Printf("bye (cache: %d mem hits, %d disk hits, %d misses, %d shared)",
		st.MemHits, st.DiskHits, st.Misses, st.Shared)
	return nil
}
