package diag

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/deltav/token"
)

func pos(l, c int) token.Pos { return token.Pos{Line: l, Col: c} }

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos: pos(3, 7), End: pos(3, 12), Severity: Error,
		Code: "typecheck", Message: "until condition has type float, want bool",
		Suggestion: "compare it, as in i >= 30",
	}
	got := d.String()
	for _, want := range []string{"3:7:", "error[typecheck]", "until condition has type float, want bool", "suggestion: compare it, as in i >= 30"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	// Position-less diagnostics omit the position prefix.
	d2 := Diagnostic{Severity: Warning, Code: "x", Message: "m"}
	if got := d2.String(); !strings.HasPrefix(got, "warn[x]:") {
		t.Errorf("position-less String() = %q", got)
	}
}

func TestListSortAndError(t *testing.T) {
	var l List
	l.Warnf(pos(5, 1), pos(5, 2), "b", "later")
	l.Errorf(pos(2, 9), pos(2, 10), "a", "early")
	l.Warnf(pos(2, 9), pos(2, 10), "a", "early-warn")
	l.Sort()
	if l[0].Message != "early" || l[1].Message != "early-warn" || l[2].Message != "later" {
		t.Fatalf("sort order wrong: %v", l)
	}
	msg := l.Error()
	if strings.Count(msg, "\n") != 2 {
		t.Fatalf("Error() should render one line per diagnostic:\n%s", msg)
	}
	if !l.HasErrors() {
		t.Fatal("HasErrors = false")
	}
	if (List{}).HasErrors() {
		t.Fatal("empty list has errors")
	}
}

func TestFilter(t *testing.T) {
	var l List
	l.Warnf(pos(1, 1), pos(1, 2), "w", "warn")
	l.Errorf(pos(2, 1), pos(2, 2), "e", "err")
	if got := l.Filter(Error); len(got) != 1 || got[0].Code != "e" {
		t.Fatalf("Filter(Error) = %v", got)
	}
	if got := l.Filter(Warning); len(got) != 2 {
		t.Fatalf("Filter(Warning) = %v", got)
	}
}

func TestErrOrNil(t *testing.T) {
	if err := (List{}).ErrOrNil(); err != nil {
		t.Fatalf("empty ErrOrNil = %v, want nil", err)
	}
	var l List
	l.Errorf(pos(1, 1), pos(1, 2), "e", "boom")
	if err := l.ErrOrNil(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("ErrOrNil = %v", err)
	}
}

func TestJSONShape(t *testing.T) {
	var l List
	l.Errorf(pos(3, 7), pos(3, 12), "typecheck", "until condition has type float, want bool")
	l[0].Suggestion = "compare it, as in i >= 30"
	var rep struct {
		Diagnostics []struct {
			Pos        struct{ Line, Col int }  `json:"pos"`
			End        *struct{ Line, Col int } `json:"end"`
			Severity   string                   `json:"severity"`
			Code       string                   `json:"code"`
			Message    string                   `json:"message"`
			Suggestion string                   `json:"suggestion"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(l.JSON()), &rep); err != nil {
		t.Fatalf("JSON unmarshal: %v\n%s", err, l.JSON())
	}
	d := rep.Diagnostics[0]
	if d.Pos.Line != 3 || d.Pos.Col != 7 || d.End == nil || d.End.Col != 12 ||
		d.Severity != "error" || d.Code != "typecheck" || d.Suggestion == "" {
		t.Fatalf("JSON diagnostic = %+v", d)
	}
	// An empty list still renders a diagnostics array, not null.
	if got := (List{}).JSON(); !strings.Contains(got, `"diagnostics": []`) {
		t.Fatalf("empty JSON = %s", got)
	}
}

func TestParseSeverity(t *testing.T) {
	for in, want := range map[string]Severity{"info": Info, "warn": Warning, "warning": Warning, "error": Error} {
		got, err := ParseSeverity(in)
		if err != nil || got != want {
			t.Errorf("ParseSeverity(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSeverity("bogus"); err == nil {
		t.Error("ParseSeverity(bogus) succeeded")
	}
}
