package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/corpus/kernelgen"
)

// checkReport is the ground-truth oracle behind error_ratio. report is
// rid's line-JSON report of one generated tree and diags the number of
// degradation diagnostics of the run. The run is correct when it has no
// diagnostics, reports every real and detectable bug in truth, and
// reports nothing outside truth except on real bugs and on functions
// labelled as expected false positives.
func checkReport(truth map[string]kernelgen.BugInfo, report []byte, diags int) error {
	if diags > 0 {
		return fmt.Errorf("degraded: %d diagnostics", diags)
	}
	reported := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(report))
	for {
		var r struct {
			Function string `json:"function"`
		}
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return fmt.Errorf("report: %w", err)
		}
		reported[r.Function] = true
	}
	for _, fn := range sortedKeys(reported) {
		info, labelled := truth[fn]
		switch {
		case !labelled:
			return fmt.Errorf("report on unlabelled function %s", fn)
		case !info.Real && !info.FPExpected:
			return fmt.Errorf("spurious report on correct function %s", fn)
		}
	}
	for _, fn := range sortedKeys(truth) {
		if info := truth[fn]; info.Real && info.Detectable && !reported[fn] {
			return fmt.Errorf("missed detectable bug in %s", fn)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// analyzeResponse holds the fields of rid serve's POST /v1/analyze reply
// the benchmark reads.
type analyzeResponse struct {
	Report      string            `json:"report"`
	FuncsTotal  int               `json:"funcs_total"`
	Degraded    bool              `json:"degraded"`
	Diagnostics []json.RawMessage `json:"diagnostics"`
	ElapsedMS   float64           `json:"elapsed_ms"`
	Metrics     json.RawMessage   `json:"metrics"`
}

// checkResponse applies the oracle to one HTTP reply. Anything but a 200
// carrying a complete, undegraded, correct report is a failure: a
// transport error is caught before this, and a 429 or 5xx fails here.
func checkResponse(status int, body []byte, truth map[string]kernelgen.BugInfo) (*analyzeResponse, error) {
	if status != http.StatusOK {
		if len(body) > 200 {
			body = body[:200]
		}
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var r analyzeResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if r.Degraded && len(r.Diagnostics) == 0 {
		return nil, fmt.Errorf("degraded response without diagnostics")
	}
	return &r, checkReport(truth, []byte(r.Report), len(r.Diagnostics))
}
