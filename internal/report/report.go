// Package report renders IPP reports in the output formats a production
// static analyzer is expected to ship: human-readable text, line-oriented
// JSON, and a minimal SARIF 2.1.0 log that code-review UIs (GitHub, VS
// Code, ...) ingest directly.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ipp"
	"repro/internal/obs"
)

// Format selects an output renderer.
type Format string

// Supported formats.
const (
	Text  Format = "text"
	JSON  Format = "json"
	SARIF Format = "sarif"
)

// ParseFormat validates a user-supplied format name.
func ParseFormat(s string) (Format, error) {
	switch Format(strings.ToLower(s)) {
	case Text:
		return Text, nil
	case JSON:
		return JSON, nil
	case SARIF:
		return SARIF, nil
	}
	return "", fmt.Errorf("unknown report format %q (want text, json or sarif)", s)
}

// rendered pairs a report with its Detail(), when the caller rendered it.
type rendered struct {
	*ipp.Report
	detail string
}

// Detail returns the caller's rendering of the report's evidence, or
// renders it when the caller passed none.
func (r rendered) Detail() string {
	if r.detail != "" {
		return r.detail
	}
	return r.Report.Detail()
}

// Write renders the reports to w in the given format. A caller that has
// already rendered each report's evidence passes it as details, with
// details[i] equal to reports[i].Detail(); the verbose text and the JSON
// records then reuse it instead of rendering it again. Reports are
// emitted in deterministic (function, refcount) order regardless of input
// order.
func Write(w io.Writer, f Format, reports []*ipp.Report, verbose bool, details ...string) error {
	sorted := make([]rendered, len(reports))
	for i, r := range reports {
		sorted[i].Report = r
		if i < len(details) {
			sorted[i].detail = details[i]
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Fn != sorted[j].Fn {
			return sorted[i].Fn < sorted[j].Fn
		}
		return sorted[i].Refcount.Key() < sorted[j].Refcount.Key()
	})
	switch f {
	case Text:
		return writeText(w, sorted, verbose)
	case JSON:
		return writeJSON(w, sorted)
	case SARIF:
		return writeSARIF(w, sorted)
	}
	return fmt.Errorf("unhandled format %q", f)
}

func writeText(w io.Writer, reports []rendered, verbose bool) error {
	for _, r := range reports {
		if _, err := fmt.Fprintln(w, r.Report); err != nil {
			return err
		}
		if verbose {
			for _, line := range strings.Split(strings.TrimRight(r.Detail(), "\n"), "\n") {
				if _, err := fmt.Fprintf(w, "    %s\n", line); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// jsonReport is the line-JSON wire format.
type jsonReport struct {
	Function string           `json:"function"`
	File     string           `json:"file,omitempty"`
	Line     int              `json:"line,omitempty"`
	Refcount string           `json:"refcount"`
	DeltaA   int              `json:"delta_a"`
	DeltaB   int              `json:"delta_b"`
	PathA    int              `json:"path_a"`
	PathB    int              `json:"path_b"`
	Witness  map[string]int64 `json:"witness,omitempty"`
	Evidence string           `json:"evidence"`
}

func writeJSON(w io.Writer, reports []rendered) error {
	enc := json.NewEncoder(w)
	for _, r := range reports {
		jr := jsonReport{
			Function: r.Fn,
			File:     r.Pos.File,
			Line:     r.Pos.Line,
			Refcount: r.Refcount.Key(),
			DeltaA:   r.DeltaA,
			DeltaB:   r.DeltaB,
			PathA:    r.PathA,
			PathB:    r.PathB,
			Witness:  r.Witness,
			Evidence: r.Detail(),
		}
		if err := enc.Encode(jr); err != nil {
			return err
		}
	}
	return nil
}

// Diag is one degradation diagnostic for rendering: a place where the
// analysis traded precision for progress (budget truncation, solver
// give-up, per-function timeout, recovered panic, cancellation).
type Diag struct {
	Function string `json:"function,omitempty"` // empty for run-level events
	Kind     string `json:"kind"`
	Cause    string `json:"cause"`
}

// WriteDiags renders degradation diagnostics to w. Text mode emits one
// "fn: kind: cause" line per event; JSON mode one object per line. SARIF
// has no natural home for run-health records, so it falls back to text —
// diagnostics are operator output, not code-review findings.
func WriteDiags(w io.Writer, f Format, diags []Diag) error {
	switch f {
	case JSON:
		enc := json.NewEncoder(w)
		for _, d := range diags {
			if err := enc.Encode(d); err != nil {
				return err
			}
		}
		return nil
	case Text, SARIF:
		for _, d := range diags {
			fn := d.Function
			if fn == "" {
				fn = "(run)"
			}
			if _, err := fmt.Fprintf(w, "%s: %s: %s\n", fn, d.Kind, d.Cause); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unhandled format %q", f)
}

// WriteMetrics renders a metrics registry snapshot to w. Text mode uses
// the snapshot's stable fixed-order layout (one line per counter, then one
// per phase); JSON mode emits a single object. SARIF has no natural home
// for run metrics, so it falls back to text, as WriteDiags does.
func WriteMetrics(w io.Writer, f Format, s obs.Snapshot) error {
	switch f {
	case JSON:
		return s.WriteJSON(w)
	case Text, SARIF:
		return s.WriteText(w)
	}
	return fmt.Errorf("unhandled format %q", f)
}

// Minimal SARIF 2.1.0 structures (stdlib-only; only the fields consumers
// require).
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
	CodeFlows []sarifCodeFlow `json:"codeFlows,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
	Message          *sarifMessage `json:"message,omitempty"`
}

// codeFlows/threadFlows carry the two recorded paths of a report when the
// run captured provenance: one threadFlow per path, one location per CFG
// block that has a source position, the block's instructions as the
// location message. GitHub code scanning renders these as step-through
// path listings.
type sarifCodeFlow struct {
	Message     sarifMessage      `json:"message"`
	ThreadFlows []sarifThreadFlow `json:"threadFlows"`
}

type sarifThreadFlow struct {
	Locations []sarifThreadFlowLocation `json:"locations"`
}

type sarifThreadFlowLocation struct {
	Location sarifLocation `json:"location"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

const ruleID = "RID001"

func writeSARIF(w io.Writer, reports []rendered) error {
	run := sarifRun{
		Tool: sarifTool{Driver: sarifDriver{
			Name:           "rid",
			InformationURI: "https://doi.org/10.1145/2872362.2872389",
			Rules: []sarifRule{{
				ID:               ruleID,
				ShortDescription: sarifMessage{Text: "Inconsistent path pair: two caller-indistinguishable paths change a reference count differently"},
			}},
		}},
		Results: []sarifResult{},
	}
	for _, r := range reports {
		res := sarifResult{
			RuleID: ruleID,
			Level:  "warning",
			Message: sarifMessage{Text: fmt.Sprintf(
				"function %s: inconsistent path pair on %s %s (%+d vs %+d)",
				r.Fn, r.ResourceWord(), r.Refcount.Key(), r.DeltaA, r.DeltaB)},
		}
		if r.Pos.IsValid() && r.Pos.File != "" {
			res.Locations = []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: r.Pos.File},
				Region:           sarifRegion{StartLine: r.Pos.Line},
			}}}
		}
		if cf, ok := sarifFlows(r.Report); ok {
			res.CodeFlows = []sarifCodeFlow{cf}
		}
		run.Results = append(run.Results, res)
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifFlows converts a report's Evidence into one codeFlow with two
// threadFlows (path A, then path B). Blocks without a source position
// are skipped — SARIF thread flow locations need a physicalLocation to
// render; ok is false when the report carries no renderable step.
func sarifFlows(r *ipp.Report) (sarifCodeFlow, bool) {
	ev := r.Evidence
	if ev == nil {
		return sarifCodeFlow{}, false
	}
	flow := func(side string, pe ipp.PathEvidence) (sarifThreadFlow, bool) {
		var tf sarifThreadFlow
		for _, blk := range pe.Blocks {
			if !blk.Pos.IsValid() || blk.Pos.File == "" {
				continue
			}
			msg := fmt.Sprintf("path %s (path %d), block b%d", side, pe.PathIndex, blk.Index)
			if len(blk.Instrs) > 0 {
				msg += ": " + strings.Join(blk.Instrs, "; ")
			}
			tf.Locations = append(tf.Locations, sarifThreadFlowLocation{Location: sarifLocation{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: blk.Pos.File},
					Region:           sarifRegion{StartLine: blk.Pos.Line},
				},
				Message: &sarifMessage{Text: msg},
			}})
		}
		return tf, len(tf.Locations) > 0
	}
	fa, okA := flow("A", ev.PathA)
	fb, okB := flow("B", ev.PathB)
	if !okA || !okB {
		return sarifCodeFlow{}, false
	}
	msg := fmt.Sprintf("two caller-indistinguishable paths of %s change %s by %+d and %+d",
		r.Fn, r.Refcount.Key(), r.DeltaA, r.DeltaB)
	if ev.Replay != nil {
		msg += " [" + ev.Replay.Verdict + "]"
	}
	return sarifCodeFlow{
		Message:     sarifMessage{Text: msg},
		ThreadFlows: []sarifThreadFlow{fa, fb},
	}, true
}
