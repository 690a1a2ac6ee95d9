package imaged

// Overload chaos gate on a real TCP listener: sixteen closed-loop
// clients push every decode path through a four-request admission
// budget for about a second, then the server drains. Whatever the
// interleaving, every reply must be one the service promises under
// overload, the gate must stay inside its budget and end empty, and no
// goroutine may outlive the drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// overloadVerdict checks one reply, or one /batch item, against the
// overload status contract: 200, 429 with an integer Retry-After in
// [1, 60], or 503 whose body says timeout or draining. It returns ""
// when the contract holds.
func overloadVerdict(status int, retryAfter string, reply decodeReply) string {
	switch status {
	case http.StatusOK:
		return ""
	case http.StatusTooManyRequests:
		if sec, err := strconv.Atoi(retryAfter); err != nil || sec < 1 || sec > 60 {
			return fmt.Sprintf("429 with Retry-After %q, want an integer in [1, 60]", retryAfter)
		}
		return ""
	case http.StatusServiceUnavailable:
		if reply.Timeout || reply.Draining {
			return ""
		}
		return fmt.Sprintf("503 without timeout or draining (error %q)", reply.Error)
	}
	return fmt.Sprintf("status %d (error %q)", status, reply.Error)
}

func TestChaosOverload(t *testing.T) {
	const (
		clients  = 16
		maxQueue = 4
		loadFor  = time.Second
	)
	goroutinesBefore := runtime.NumGoroutine()

	cfg := testConfig(t)
	cfg.MaxQueue = maxQueue
	cfg.Salvage = true
	s := newTestServer(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	small := encodeJPEG(t, 256, 192, true)
	large := encodeJPEG(t, 384, 288, true)
	batch, batchType := batchBody(t, []namedPart{{"a", small}, {"b", large}})
	type request struct {
		path, contentType string
		body              []byte
	}
	mix := []request{
		{"/decode?cache=bypass", "image/jpeg", large},
		{"/decode?cache=bypass&degrade=allow", "image/jpeg", large},
		{"/decode?cache=bypass&timeout=1ms", "image/jpeg", large},
		{"/transcode?cache=bypass&scale=1/2", "image/jpeg", small},
		{"/batch?cache=bypass", batchType, batch},
	}

	var (
		mu                   sync.Mutex
		ok, shed, degraded   int
		timeouts, violations int
	)
	// note tallies one reply or /batch item; the first few contract
	// violations are reported in full.
	note := func(req string, status int, retryAfter string, reply decodeReply) {
		mu.Lock()
		defer mu.Unlock()
		switch status {
		case http.StatusOK:
			ok++
			if reply.Degraded {
				degraded++
			}
		case http.StatusTooManyRequests:
			shed++
		case http.StatusServiceUnavailable:
			timeouts++
		}
		if v := overloadVerdict(status, retryAfter, reply); v != "" {
			violations++
			if violations <= 5 {
				t.Errorf("%s: %s", req, v)
			}
		}
	}

	// Sample the gate throughout the load: its budget is a hard cap.
	stopSampling := make(chan struct{})
	sampled := make(chan int)
	go func() {
		n := 0
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				sampled <- n
				return
			case <-tick.C:
			}
			n++
			g := s.gate.snapshot()
			if g.Pending < 0 || g.Pending > maxQueue || g.PendingBytes < 0 || g.PendingBytes > s.cfg.MaxQueueBytes {
				t.Errorf("gate snapshot outside its budget: %d pending (max %d), %d bytes (max %d)",
					g.Pending, maxQueue, g.PendingBytes, s.cfg.MaxQueueBytes)
			}
		}
	}()

	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport}
	deadline := time.Now().Add(loadFor)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i++ {
				rq := mix[i%len(mix)]
				resp, err := client.Post(base+rq.path, rq.contentType, bytes.NewReader(rq.body))
				if err != nil {
					t.Errorf("%s: no reply: %v", rq.path, err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: reading the reply: %v", rq.path, err)
					return
				}
				retryAfter := resp.Header.Get("Retry-After")
				if rq.contentType == batchType && resp.StatusCode == http.StatusOK {
					var br batchReply
					if err := json.Unmarshal(raw, &br); err != nil {
						t.Errorf("%s: bad batch JSON: %v", rq.path, err)
						continue
					}
					for _, it := range br.Items {
						note(fmt.Sprintf("%s item %d", rq.path, it.Index), it.Status, strconv.Itoa(it.RetryAfterSec), it.decodeReply)
					}
					continue
				}
				var reply decodeReply
				if resp.Header.Get("Content-Type") == "application/json" {
					_ = json.Unmarshal(raw, &reply)
				}
				note(rq.path, resp.StatusCode, retryAfter, reply)
			}
		}()
	}
	wg.Wait()
	close(stopSampling)
	samples := <-sampled

	// Close the clients' idle connections first: a spare connection the
	// transport dialled but never used would otherwise hold Shutdown for
	// the 5 s net/http grants a connection that has sent no request.
	transport.CloseIdleConnections()
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.Close()

	t.Logf("%d ok (%d degraded), %d shed, %d timed out, %d violations; %d gate samples",
		ok, degraded, shed, timeouts, violations, samples)
	if ok == 0 || shed == 0 {
		t.Errorf("load never reached both outcomes: %d ok, %d shed; want at least one of each", ok, shed)
	}
	if g := s.gate.snapshot(); g.Pending != 0 || g.PendingBytes != 0 {
		t.Errorf("gate ends with %d pending requests and %d bytes, want none", g.Pending, g.PendingBytes)
	}
	// Connection and worker goroutines wind down asynchronously after
	// the drain; give them a moment.
	leakDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(leakDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		t.Errorf("%d goroutines after the drain, %d before New: leaked %d", n, goroutinesBefore, n-goroutinesBefore)
	}
}
