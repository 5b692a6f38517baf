package main

// Integration test of the daemon lifecycle: run() is driven in-process with
// the production flag set against a real TCP listener, exercised over HTTP,
// and shut down through context cancellation (the signal path in
// production).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDaemonLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var stderr bytes.Buffer
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-cache-dir", t.TempDir(),
			"-drain-timeout", "30s",
		}, &stderr, ready)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v\nstderr: %s", err, stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := fmt.Sprintf("http://%s", addr)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := `{"gen":"shape=pipeline,cores=8,layers=2,seed=1"}`
	post := func() []byte {
		resp, err := http.Post(base+"/v1/synthesize?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("synthesize status %d: %s", resp.StatusCode, b)
		}
		return b
	}
	cold := post()
	warm := post()
	if !bytes.Equal(cold, warm) {
		t.Error("repeated request is not byte-identical")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	for _, want := range []string{"listening on", "shutting down", "bye (cache:"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestSlowHeaderConnectionClosed checks that the daemon's HTTP server closes
// a connection whose client sends only part of a request header, so slow or
// hostile clients cannot pin connections. It uses a short header timeout;
// run builds the same server with readHeaderTimeout.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	srv := newHTTPServer(handler, 200*time.Millisecond, time.Minute)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: sunfloor\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server must hang up on its own, long before this deadline.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection with a partial header still open after %v", time.Since(start))
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &stderr, nil); err == nil {
		t.Error("run with an unknown flag should fail")
	}
}
