// Package grepscan reimplements the brute-force textual search of §6.3:
// find every call site of the pm_runtime_get* APIs that has error handling,
// and check whether the error path balances the count with a pm_runtime_put*
// call. The paper used exactly this kind of regular-expression search over
// the kernel tree to establish that ~70% of error-handled call sites miss
// the decrement, and to find bugs RID itself cannot see (Figure 10).
//
// The scanner is deliberately textual — it works on source text, not the
// IR — mirroring the methodology it reproduces.
package grepscan

import (
	"regexp"
	"sort"
	"strings"
)

// CallSite is one discovered get-API call with error handling.
type CallSite struct {
	File        string
	Line        int // 1-based line of the call
	EnclosingFn string
	API         string // the pm_runtime_get* function called
	ResultVar   string // variable receiving the return value
	PutOnError  bool   // a pm_runtime_put* appears on the error path
}

// Stats aggregates scan results in the shape of §6.3.
type Stats struct {
	TotalCalls     int // get-API calls seen (excluding wrappers)
	WithHandling   int // call sites whose result feeds an error check
	MissingPut     int // error-handled sites without a put on the error path
	ExcludedInFile int // calls inside excluded (wrapper) functions
}

var (
	reFuncDef = regexp.MustCompile(`^\s*(?:static\s+)?(?:\w+\s+\*?|\w+\s+)(\w+)\s*\([^;]*\)\s*\{?\s*$`)
	reGetCall = regexp.MustCompile(`(?:(\w+)\s*=\s*)?(pm_runtime_get(?:_sync|_noresume)?)\s*\(`)
	rePutCall = regexp.MustCompile(`pm_runtime_put\w*\s*\(`)
)

// Scanner scans source files.
type Scanner struct {
	// ExcludeFn reports whether a function is a wrapper to be skipped
	// (the paper excludes wrapper functions from the §6.3 count).
	ExcludeFn func(name string) bool
	// Window is how many lines after the call are searched for the error
	// check; defaults to 6.
	Window int
}

// Scan processes one file's source text and returns the error-handled get
// call sites.
func (s *Scanner) Scan(file, src string) []CallSite {
	window := s.Window
	if window == 0 {
		window = 6
	}
	lines := strings.Split(src, "\n")
	var out []CallSite
	enclosing := ""
	for i, line := range lines {
		if m := reFuncDef.FindStringSubmatch(line); m != nil && strings.Contains(line, "(") {
			// Heuristic: a definition line mentions no semicolon and ends
			// in an opening brace on this or the next line.
			if strings.HasSuffix(strings.TrimSpace(line), "{") ||
				(i+1 < len(lines) && strings.TrimSpace(lines[i+1]) == "{") {
				enclosing = m[1]
			}
		}
		m := reGetCall.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if s.ExcludeFn != nil && s.ExcludeFn(enclosing) {
			continue
		}
		resVar, api := m[1], m[2]
		cs := CallSite{File: file, Line: i + 1, EnclosingFn: enclosing, API: api, ResultVar: resVar}
		if resVar == "" {
			continue // no error handling possible without the result
		}
		// Look for "if (<res> ... )" within the window.
		errCheck := regexp.MustCompile(`if\s*\(\s*` + regexp.QuoteMeta(resVar) + `\b`)
		handled := false
		checkLine := -1
		for j := i + 1; j < len(lines) && j <= i+window; j++ {
			if errCheck.MatchString(lines[j]) {
				handled = true
				checkLine = j
				break
			}
		}
		if !handled {
			continue
		}
		// Inspect the error branch: the block (or single statement) after
		// the if, up to the matching close or the next empty-ish boundary.
		cs.PutOnError = errorBranchHasPut(lines, checkLine)
		out = append(out, cs)
	}
	return out
}

// errorBranchHasPut scans the statements controlled by the if at line idx
// for a pm_runtime_put* call.
func errorBranchHasPut(lines []string, idx int) bool {
	line := lines[idx]
	// Single-statement branch on the same line?
	if after := line[strings.Index(line, "if"):]; rePutCall.MatchString(after) {
		return true
	}
	depth := strings.Count(line, "{") - strings.Count(line, "}")
	if depth <= 0 {
		// Single-statement if: only the next line belongs to the branch.
		if idx+1 < len(lines) {
			return rePutCall.MatchString(lines[idx+1])
		}
		return false
	}
	for j := idx + 1; j < len(lines); j++ {
		if rePutCall.MatchString(lines[j]) {
			return true
		}
		depth += strings.Count(lines[j], "{") - strings.Count(lines[j], "}")
		if depth <= 0 {
			return false
		}
	}
	return false
}

// ScanAll scans a set of files and aggregates statistics.
func (s *Scanner) ScanAll(files map[string]string) ([]CallSite, Stats) {
	var sites []CallSite
	var st Stats
	// Deterministic file order.
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		src := files[n]
		st.TotalCalls += len(reGetCall.FindAllString(src, -1))
		fileSites := s.Scan(n, src)
		for _, cs := range fileSites {
			st.WithHandling++
			if !cs.PutOnError {
				st.MissingPut++
			}
		}
		sites = append(sites, fileSites...)
	}
	return sites, st
}
