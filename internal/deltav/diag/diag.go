// Package diag defines the structured diagnostics shared by the ΔV front
// end. The parser, the type checker and the static-analysis suite in
// internal/deltav/analysis all report findings as position-carrying
// Diagnostic values aggregated into a List, so every stage can surface all
// of its findings at once (instead of stopping at the first) and render
// them uniformly as text or JSON.
package diag

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/deltav/token"
)

// Severity classifies a diagnostic.
type Severity int

// Severities, ordered so that higher is more severe.
const (
	// Info marks a descriptive finding about a healthy program (the
	// repairability capability matrix); hidden at the default -severity.
	Info Severity = iota
	// Warning marks a program the compiler accepts but that likely does
	// not mean what its author intended (degenerate incrementalization,
	// shadowing, dead state, disabled halt-by-default).
	Warning
	// Error marks a program the driver refuses to compile.
	Error
)

// String returns the surface spelling used by renderers and flags.
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warn"
	}
	return "info"
}

// ParseSeverity parses a -severity flag value.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warning, nil
	case "error":
		return Error, nil
	}
	return 0, fmt.Errorf("unknown severity %q (want info, warn, error)", s)
}

// Diagnostic is one finding, anchored to a source range.
type Diagnostic struct {
	Pos        token.Pos // start of the offending range (invalid when unknown)
	End        token.Pos // end of the range (invalid when unknown)
	Severity   Severity
	Code       string // stable identifier: an analyzer name, "syntax", "typecheck"
	Message    string
	Suggestion string // optional remediation, e.g. a flag to pass instead
}

// String renders the diagnostic on one line:
//
//	3:7: error[typecheck]: until condition has type float, want bool (suggestion: compare it, as in i >= 30)
func (d Diagnostic) String() string {
	var b strings.Builder
	if d.Pos.IsValid() {
		fmt.Fprintf(&b, "%s: ", d.Pos)
	}
	b.WriteString(d.Severity.String())
	if d.Code != "" {
		fmt.Fprintf(&b, "[%s]", d.Code)
	}
	fmt.Fprintf(&b, ": %s", d.Message)
	if d.Suggestion != "" {
		fmt.Fprintf(&b, " (suggestion: %s)", d.Suggestion)
	}
	return b.String()
}

// List is an accumulating collection of diagnostics. It implements error,
// rendering every finding (one per line), so front-end stages can return
// all of their findings through ordinary error plumbing.
type List []Diagnostic

// Add appends a diagnostic.
func (l *List) Add(d Diagnostic) { *l = append(*l, d) }

// Errorf appends an error-severity diagnostic.
func (l *List) Errorf(pos, end token.Pos, code, format string, args ...any) {
	l.Add(Diagnostic{Pos: pos, End: end, Severity: Error, Code: code,
		Message: fmt.Sprintf(format, args...)})
}

// Warnf appends a warning-severity diagnostic.
func (l *List) Warnf(pos, end token.Pos, code, format string, args ...any) {
	l.Add(Diagnostic{Pos: pos, End: end, Severity: Warning, Code: code,
		Message: fmt.Sprintf(format, args...)})
}

// Error renders every diagnostic, one per line, positions first.
func (l List) Error() string {
	if len(l) == 0 {
		return "no diagnostics"
	}
	parts := make([]string, len(l))
	for i, d := range l {
		parts[i] = d.String()
	}
	return strings.Join(parts, "\n")
}

// Sort orders the list by position, then severity (errors first), then
// code, keeping renders and JSON output deterministic.
func (l List) Sort() {
	sort.SliceStable(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.Code < b.Code
	})
}

// HasErrors reports whether any diagnostic has Error severity.
func (l List) HasErrors() bool {
	for _, d := range l {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Filter returns the diagnostics at or above the given severity.
func (l List) Filter(min Severity) List {
	out := List{}
	for _, d := range l {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// ErrOrNil returns the sorted list as an error, or nil when it is empty.
// Use this instead of returning a List directly: a typed empty List in an
// error interface would compare non-nil.
func (l List) ErrOrNil() error {
	if len(l) == 0 {
		return nil
	}
	l.Sort()
	return l
}

// jsonPos mirrors token.Pos with explicit JSON field names.
type jsonPos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

type jsonDiagnostic struct {
	Pos        jsonPos  `json:"pos"`
	End        *jsonPos `json:"end,omitempty"`
	Severity   string   `json:"severity"`
	Code       string   `json:"code"`
	Message    string   `json:"message"`
	Suggestion string   `json:"suggestion,omitempty"`
}

type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

// JSON renders the list as a stable, machine-readable report:
//
//	{"diagnostics":[{"pos":{"line":3,"col":7},...}]}
func (l List) JSON() string {
	rep := jsonReport{Diagnostics: make([]jsonDiagnostic, 0, len(l))}
	for _, d := range l {
		jd := jsonDiagnostic{
			Pos:        jsonPos{Line: d.Pos.Line, Col: d.Pos.Col},
			Severity:   d.Severity.String(),
			Code:       d.Code,
			Message:    d.Message,
			Suggestion: d.Suggestion,
		}
		if d.End.IsValid() {
			jd.End = &jsonPos{Line: d.End.Line, Col: d.End.Col}
		}
		rep.Diagnostics = append(rep.Diagnostics, jd)
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		// The types above marshal unconditionally; this is unreachable.
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}
