package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sunfloor3d"
)

// TestSubmitBodyReadDeadline drives the submit endpoint over raw TCP with the
// body read deadline lowered: a client that trickles its body is answered or
// disconnected soon after the deadline, while a ?wait=1 request whose
// synthesis outlasts the deadline still gets its result — the deadline only
// covers reading the body.
func TestSubmitBodyReadDeadline(t *testing.T) {
	defer func(d time.Duration) { bodyReadTimeout = d }(bodyReadTimeout)
	bodyReadTimeout = 200 * time.Millisecond
	const slack = 2 * time.Second

	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	t.Run("trickled body", func(t *testing.T) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The declared body takes 20 s to arrive at one byte per 20 ms.
		const bodyLen = 1000
		fmt.Fprintf(conn, "POST /v1/synthesize?wait=1 HTTP/1.1\r\nHost: sunfloor\r\n"+
			"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n{", bodyLen)
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for i := 1; i < bodyLen; i++ {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				if _, err := conn.Write([]byte{' '}); err != nil {
					return // the server hung up
				}
			}
		}()

		start := time.Now()
		if err := conn.SetReadDeadline(start.Add(bodyReadTimeout + slack)); err != nil {
			t.Fatal(err)
		}
		resp, err := io.ReadAll(conn)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("trickling client neither answered nor disconnected after %v", time.Since(start))
		}
		if len(resp) > 0 && !strings.HasPrefix(string(resp), "HTTP/1.1 400") {
			t.Errorf("trickling client answered %.60q, want a 400", resp)
		}
	})

	t.Run("wait outlasts the deadline", func(t *testing.T) {
		// Hold the request's cache flight open for several deadlines, so its
		// worker joins the flight and the ?wait=1 handler waits that long
		// with the body long read.
		req := SynthesizeRequest{Gen: "shape=pipeline,cores=8,layers=2,seed=2"}
		design, err := req.Design()
		if err != nil {
			t.Fatal(err)
		}
		key, err := sunfloor3d.Fingerprint(design)
		if err != nil {
			t.Fatal(err)
		}
		held, release := make(chan struct{}), make(chan struct{})
		go s.cache.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			close(held)
			<-release
			return []byte(`{"points":[],"best_index":-1}`), nil
		})
		<-held
		time.AfterFunc(3*bodyReadTimeout, func() { close(release) })

		resp, err := http.Post(ts.URL+"/v1/synthesize?wait=1", "application/json",
			strings.NewReader(`{"gen":"`+req.Gen+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s), want 200", resp.StatusCode, b)
		}
	})
}
