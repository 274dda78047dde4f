package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// phase is one load phase of N requests. With Rate > 0 it is an open loop:
// request i is due at start + i/Rate whether or not earlier ones have
// completed. With Rate 0 it is a closed loop: each connection sends its
// next request as soon as the previous one completes.
type phase struct {
	Rate  float64
	Conns int
	N     int
}

// sample is one sent request, timed on the client clock. Picked is when a
// connection became free and took the request; Conn is that connection.
type sample struct {
	Due, Picked, Sent, Done time.Time
	Conn                    int
	Err                     error
}

// latency runs from the due time, so a stall is charged to every request
// queued behind it (no coordinated omission).
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// service is the time the request spent on the wire and in the server.
func (s sample) service() time.Duration { return s.Done.Sub(s.Sent) }

// connWait is how long a due request waited for a free connection.
func (s sample) connWait() time.Duration {
	if s.Picked.After(s.Due) {
		return s.Picked.Sub(s.Due)
	}
	return 0
}

// late is the generator's own tardiness: how long after the request could
// have gone out (due, with a connection free) it was actually sent.
func (s sample) late() time.Duration {
	ready := s.Due
	if s.Picked.After(ready) {
		ready = s.Picked
	}
	return s.Sent.Sub(ready)
}

// drive runs one phase, calling send for request i from one of p.Conns
// goroutines, and returns the samples of the requests sent, in index order.
// It returns once every sent request has completed.
func drive(ctx context.Context, p phase, send func(ctx context.Context, i int) error) []sample {
	n := p.N
	var period time.Duration
	if p.Rate > 0 {
		period = time.Duration(float64(time.Second) / p.Rate)
	}
	samples := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.Conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := &samples[i]
				s.Conn = conn
				s.Picked = time.Now()
				s.Due = s.Picked
				if p.Rate > 0 {
					s.Due = start.Add(time.Duration(i) * period)
					if wait := time.Until(s.Due); wait > 0 {
						t := time.NewTimer(wait)
						select {
						case <-t.C:
						case <-ctx.Done():
							t.Stop()
						}
					}
				}
				s.Sent = time.Now()
				s.Err = send(ctx, i)
				s.Done = time.Now()
			}
		}(c)
	}
	wg.Wait()
	return samples[:min(n, int(next.Load()))]
}

// closedRate is the completion rate of a closed-loop phase that started at
// start: the sum over connections of each one's completions divided by the
// time until its last completion. Unlike completions over the phase's
// span, it does not count the time one connection sits idle at the end
// while the other finishes its last request.
func closedRate(start time.Time, samples []sample, ok func(int) bool) (n int, rate float64) {
	count := map[int]int{}
	last := map[int]time.Time{}
	for i, s := range samples {
		if !ok(i) {
			continue
		}
		n++
		count[s.Conn]++
		if s.Done.After(last[s.Conn]) {
			last[s.Conn] = s.Done
		}
	}
	for c, k := range count {
		rate += float64(k) / last[c].Sub(start).Seconds()
	}
	return n, rate
}
