package cliutil

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerDropsStalledClient: a client that never finishes its
// request headers is disconnected once the header timeout passes, and
// no write timeout is set to cut slow responses. The header timeout is
// lowered so the test runs in well under a second; the other settings
// are those the binaries use.
func TestHTTPServerDropsStalledClient(t *testing.T) {
	hs := HTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts %v/%v/%v, want %v/%v/%v", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout,
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none", hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/predict HTTP/1.1\r\nHost: portccs\r\n"); err != nil {
		t.Fatal(err)
	}
	// The bound on the test's own wait: far past the header timeout.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	n, err := conn.Read(make([]byte, 512))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stalled client: read %d bytes, err %v; want the server to close the connection", n, err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("stalled client disconnected after %v", waited)
	}
}
