package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLaterRequests drives a stub server that stalls
// once for 500 ms. Timed from their due times, the requests that came due
// during the stall all show it; timed from when they were sent (what a
// closed-loop client measures) almost none do.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stallAt = 10
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1)-1 == stallAt {
			time.Sleep(500 * time.Millisecond)
		}
		mu.Unlock()
		io.WriteString(w, "ok") //nolint:errcheck
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	p := phase{Rate: 50, Conns: 2, N: 75}
	samples := drive(context.Background(), p, func(ctx context.Context, i int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	if len(samples) != 75 {
		t.Fatalf("sent %d requests, want 75 (50/s for 1.5 s)", len(samples))
	}
	slowFromDue, slowFromSend := 0, 0
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("request %d: %v", i, s.Err)
		}
		if s.latency() < s.service() {
			t.Fatalf("request %d: latency %v below service time %v", i, s.latency(), s.service())
		}
		if s.latency() >= 250*time.Millisecond {
			slowFromDue++
		}
		if s.service() >= 250*time.Millisecond {
			slowFromSend++
		}
	}
	// Requests come due every 20 ms, so about 12 fall in the stall's first
	// 250 ms; at most the two in flight on the two connections are slow
	// when timed from their send.
	if slowFromDue < 10 {
		t.Errorf("%d requests slow from their due time, want ≥ 10", slowFromDue)
	}
	if slowFromSend > 2 {
		t.Errorf("%d requests slow from their send time, want ≤ 2", slowFromSend)
	}
	if d := samples[stallAt+2].latency(); d < 400*time.Millisecond {
		t.Errorf("request due 40 ms into the stall took %v, want ≥ 400 ms", d)
	}
}

// TestClosedLoopSendsEveryRequest checks the saturation phase: it sends
// exactly the N requests it has, keeps every connection busy, and
// closedRate reads the rate the connections sustained.
func TestClosedLoopSendsEveryRequest(t *testing.T) {
	var sent atomic.Int64
	send := func(ctx context.Context, i int) error {
		sent.Add(1)
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	start := time.Now()
	s := drive(context.Background(), phase{Conns: 2, N: 40}, send)
	if len(s) != 40 || sent.Load() != 40 {
		t.Fatalf("%d samples for %d sends, want 40", len(s), sent.Load())
	}
	perConn := map[int]int{}
	for _, x := range s {
		perConn[x.Conn]++
	}
	if len(perConn) != 2 {
		t.Errorf("requests per connection %v, want both connections used", perConn)
	}
	// Two connections, 5 ms per request: at most 400 requests per second.
	if n, rate := closedRate(start, s, func(int) bool { return true }); n != 40 || rate > 400 || rate < 100 {
		t.Errorf("closedRate = %d requests at %.0f/s, want 40 at 100-400/s", n, rate)
	}
}
