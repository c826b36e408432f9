package cliutil

import (
	"net/http"
	"time"
)

// Timeouts of the HTTP servers the long-running binaries expose. A
// client has readHeaderTimeout to send its request headers and
// readTimeout to send the whole request; a keep-alive connection idle
// for idleTimeout is closed. Without them one stalled client holds a
// connection and its goroutine forever. There is deliberately no write
// timeout: a cold prediction profiles the program first, which
// legitimately takes seconds, and net/http's WriteTimeout would cut
// such a response off.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// HTTPServer returns a server for h on addr with the fixed timeouts.
func HTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}
