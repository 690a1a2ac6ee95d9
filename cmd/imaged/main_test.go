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
	srv := newHTTPServer("", http.NotFoundHandler(), defaultMaxBody)
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

// TestSlowBodyDisconnected: a client that sends its headers and then
// only part of the body it declared is cut off at the read timeout,
// which leaves room for a full-size body at minBodyRate. The test pins
// the derived timeout, then shortens it to keep the suite fast.
func TestSlowBodyDisconnected(t *testing.T) {
	if got, want := readTimeout(defaultMaxBody), 74*time.Second; got != want {
		t.Fatalf("read timeout at the default body cap %v, want %v", got, want)
	}
	if got, want := readTimeout(0), readTimeout(defaultMaxBody); got != want {
		t.Fatalf("read timeout without a body cap %v, want the default's %v", got, want)
	}
	reading := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(reading)
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusRequestTimeout)
		}
	})
	srv := newHTTPServer("", h, 8<<20)
	if want := readHeaderTimeout + 8*time.Second; srv.ReadTimeout != want {
		t.Fatalf("ReadTimeout %v for an 8 MiB cap, want %v", srv.ReadTimeout, want)
	}
	srv.ReadTimeout = 300 * time.Millisecond
	conn, err := net.Dial("tcp", serve(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /decode HTTP/1.1\r\nHost: imaged\r\nContent-Length: 1000\r\n\r\n"+strings.Repeat("x", 100)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	_, err = conn.Read(make([]byte, 512))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection neither answered nor closed after %v", time.Since(start).Round(time.Millisecond))
	}
	select {
	case <-reading:
	default:
		t.Fatal("the handler never started reading the body")
	}
}

// TestOversizedHeadersRefused: headers past maxHeaderBytes get 431.
func TestOversizedHeadersRefused(t *testing.T) {
	conn, err := net.Dial("tcp", serve(t, newHTTPServer("", http.NotFoundHandler(), defaultMaxBody)))
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
