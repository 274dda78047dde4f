package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestOracleCountsDoctoredResultsAsFailed feeds the oracle one real scan
// and doctored copies of it; each doctored one must fail.
func TestOracleCountsDoctoredResultsAsFailed(t *testing.T) {
	c := kernelScale(1, 317)
	report, _, diags, err := facadeScan(c.Files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(c.Truth, report, diags); err != nil {
		t.Fatalf("real scan rejected: %v", err)
	}
	var bug, clean string
	for _, fn := range sortedKeys(c.Truth) {
		info := c.Truth[fn]
		if bug == "" && info.Real && info.Detectable {
			bug = fn
		}
		if clean == "" && !info.Real && !info.FPExpected {
			clean = fn
		}
	}
	var dropped bytes.Buffer
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"function":"`+bug+`"`)) {
			dropped.Write(line)
		}
	}
	spurious := append([]byte(`{"function":"`+clean+`"}`+"\n"), report...)
	body := func(rep []byte, degraded bool) []byte {
		b, err := json.Marshal(map[string]any{"report": string(rep), "degraded": degraded,
			"diagnostics": []map[string]string{}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkResponse(http.StatusOK, body(report, false), c.Truth); err != nil {
		t.Fatalf("real response rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		want   string
	}{
		{"dropped bug", http.StatusOK, body(dropped.Bytes(), false), "missed detectable bug in " + bug},
		{"spurious report", http.StatusOK, body(spurious, false), "spurious report on correct function " + clean},
		{"unlabelled report", http.StatusOK, body([]byte(`{"function":"nowhere"}`), false), "unlabelled"},
		{"degraded", http.StatusOK, body(report, true), "degraded"},
		{"429", http.StatusTooManyRequests, []byte(`{"error":"overloaded"}`), "status 429"},
		{"500", http.StatusInternalServerError, []byte(`{"error":"boom"}`), "status 500"},
	} {
		_, err := checkResponse(tc.status, tc.body, c.Truth)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if err := checkReport(c.Truth, report, 1); err == nil {
		t.Error("a run with a diagnostic passed")
	}
}
