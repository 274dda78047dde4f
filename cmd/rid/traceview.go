// Trace-file viewer behind `rid explain -trace FILE` (no sources): read
// a JSONL span trace — written by `rid -trace`, a serve request with
// trace=true, or the daemon's tail-sampled slow-request capture — and
// validate + summarize it instead of running an analysis. Validation is
// strict where the schema is load-bearing (required keys, types, seq
// strictly increasing in file order) and tolerant where it is
// append-only (unknown extra keys, unknown phases).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// traceSpanLine is one span event; pointer fields distinguish absent
// from zero during validation.
type traceSpanLine struct {
	Seq     *int64  `json:"seq"`
	Phase   *string `json:"phase"`
	Fn      *string `json:"fn"`
	StartUS *int64  `json:"start_us"`
	DurUS   *int64  `json:"dur_us"`
}

// traceHeader is the optional first line of a daemon-flushed slow trace.
// ReplyUS is the time from the request's start to its reply's start.
type traceHeader struct {
	RequestID *string `json:"request_id"`
	Status    int     `json:"status"`
	ReplyUS   int64   `json:"reply_us"`
	Dropped   int64   `json:"dropped_bytes"`
}

// runExplainTrace validates path and prints a per-phase summary and the
// slowest spans. Exits 0 on a valid trace; any schema violation is a
// usage-class error (exit 2) naming the offending line.
func runExplainTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()

	type agg struct {
		count int64
		total time.Duration
	}
	phases := map[string]*agg{}
	var order []string
	type slow struct {
		seq   int64
		phase string
		fn    string
		dur   time.Duration
	}
	var slowest []slow

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	lineNo, lastSeq, spans := 0, int64(0), 0
	var hdr *traceHeader
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if lineNo == 1 {
			var h traceHeader
			if err := json.Unmarshal(line, &h); err == nil && h.RequestID != nil {
				hdr = &h
				continue
			}
		}
		var s traceSpanLine
		if err := json.Unmarshal(line, &s); err != nil {
			fatalf("%s:%d: not a JSON object: %v", path, lineNo, err)
		}
		switch {
		case s.Seq == nil:
			fatalf("%s:%d: span missing \"seq\"", path, lineNo)
		case s.Phase == nil:
			fatalf("%s:%d: span missing \"phase\"", path, lineNo)
		case s.Fn == nil:
			fatalf("%s:%d: span missing \"fn\"", path, lineNo)
		case s.StartUS == nil:
			fatalf("%s:%d: span missing \"start_us\"", path, lineNo)
		case s.DurUS == nil:
			fatalf("%s:%d: span missing \"dur_us\"", path, lineNo)
		case *s.Seq <= lastSeq:
			fatalf("%s:%d: seq %d not strictly increasing (previous %d)", path, lineNo, *s.Seq, lastSeq)
		case *s.DurUS < 0:
			fatalf("%s:%d: negative dur_us %d", path, lineNo, *s.DurUS)
		}
		lastSeq = *s.Seq
		spans++
		a := phases[*s.Phase]
		if a == nil {
			a = &agg{}
			phases[*s.Phase] = a
			order = append(order, *s.Phase)
		}
		d := time.Duration(*s.DurUS) * time.Microsecond
		a.count++
		a.total += d
		slowest = append(slowest, slow{seq: *s.Seq, phase: *s.Phase, fn: *s.Fn, dur: d})
		if len(slowest) > 64 {
			sort.Slice(slowest, func(i, j int) bool { return slowest[i].dur > slowest[j].dur })
			slowest = slowest[:32]
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("%s: %v", path, err)
	}
	if spans == 0 {
		fatalf("%s: no span lines", path)
	}

	fmt.Printf("trace %s: %d spans, seq 1..%d\n", path, spans, lastSeq)
	if hdr != nil {
		fmt.Printf("request %s: status %d, reply after %.1fms", *hdr.RequestID, hdr.Status,
			float64(hdr.ReplyUS)/1000)
		if hdr.Dropped > 0 {
			fmt.Printf(" (trace truncated: %d bytes dropped)", hdr.Dropped)
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Printf("%-10s %8s %12s\n", "phase", "spans", "total")
	for _, ph := range order {
		a := phases[ph]
		fmt.Printf("%-10s %8d %12s\n", ph, a.count, a.total.Round(time.Microsecond))
	}
	sort.Slice(slowest, func(i, j int) bool { return slowest[i].dur > slowest[j].dur })
	n := len(slowest)
	if n > 5 {
		n = 5
	}
	fmt.Println()
	fmt.Println("slowest spans:")
	for _, s := range slowest[:n] {
		fn := s.fn
		if fn == "" {
			fn = "-"
		}
		fmt.Printf("  seq %-6d %-10s %-24s %s\n", s.seq, s.phase, fn, s.dur.Round(time.Microsecond))
	}
}
