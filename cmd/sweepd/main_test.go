package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the serve mode's connection timeouts:
// request headers and idle keep-alives are bounded, while writes are
// not, because progress streams and result downloads are long-lived.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v; both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Errorf("WriteTimeout = %v, ReadTimeout = %v; long-lived streams and large result posts need both unset", hs.WriteTimeout, hs.ReadTimeout)
	}
}
