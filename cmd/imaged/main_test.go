package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serve runs srv on a loopback listener until the test ends.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestSlowHeadersDisconnected: a client that starts a request and never
// finishes its headers is cut off at the header timeout instead of
// holding its connection open. The test shortens the timeout to keep
// the suite fast.
func TestSlowHeadersDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	conn, err := net.Dial("tcp", serve(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /decode HTTP/1.1\r\nHost: imaged\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v", time.Since(start).Round(time.Millisecond))
	}
	if n != 0 || err == nil {
		t.Fatalf("read %d bytes, err %v; want the server to close the connection", n, err)
	}
}

// TestOversizedHeadersRefused: headers past maxHeaderBytes get 431.
func TestOversizedHeadersRefused(t *testing.T) {
	conn, err := net.Dial("tcp", serve(t, newHTTPServer("", http.NotFoundHandler())))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	big := strings.Repeat("x", 2*maxHeaderBytes)
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: imaged\r\nX-Big: "+big+"\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("status %d, want 431", resp.StatusCode)
	}
}
