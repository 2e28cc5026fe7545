package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeClosesStalledConnections checks serve's connection bounds: a
// client that sends half a request line, and one that stays connected
// after its response, are both disconnected by the server instead of
// holding a goroutine and a descriptor forever.
func TestServeClosesStalledConnections(t *testing.T) {
	if hs := newHTTPServer(nil); hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("serve's server has no connection bounds: %+v", hs)
	}
	defer func(h, i time.Duration) { readHeaderTimeout, idleTimeout = h, i }(readHeaderTimeout, idleTimeout)
	readHeaderTimeout, idleTimeout = 100*time.Millisecond, 200*time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") }))
	go hs.Serve(ln)
	defer hs.Close()

	closed := func(name string, c net.Conn, r *bufio.Reader) {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.ReadAll(r)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s: connection still open after 5 s", name)
		}
	}

	half, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	io.WriteString(half, "GET /stats HT")
	closed("half a request line", half, bufio.NewReader(half))

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	io.WriteString(idle, "GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("keep-alive request: %d %q", resp.StatusCode, body)
	}
	closed("an idle keep-alive connection", idle, br)
}
