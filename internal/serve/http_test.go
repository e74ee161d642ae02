package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
)

// getJSON issues a request against the test server and decodes the JSON
// reply into out, asserting the status code.
func getJSON(t *testing.T, ts *httptest.Server, method, path, body string, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d (body: %s)", method, path, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
}

// TestHTTPDaemonRoundTrip is the end-to-end serving test the daemon is
// built around: start, query, mutate over the wire, flush, query again,
// and check the repaired values against a from-scratch rerun on an
// identically mutated reference graph.
func TestHTTPDaemonRoundTrip(t *testing.T) {
	s, prog := ssspServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Liveness and the converged first version.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var before valueReply
	getJSON(t, ts, "GET", "/value/1", "", http.StatusOK, &before)
	if before.Epoch != 1 || before.Field != "dist" {
		t.Fatalf("initial value reply = %+v", before)
	}

	// Mutate over the wire: a tightening batch the repair path accepts.
	muts := "# tighten the corner\nadd 0 16 0.25\nset 0 1 0.5\n"
	var acc mutateReply
	getJSON(t, ts, "POST", "/mutate", muts, http.StatusAccepted, &acc)
	if acc.Accepted != 2 || acc.Pending != 2 || acc.Epoch != 1 {
		t.Fatalf("mutate reply = %+v", acc)
	}
	var fl flushReply
	getJSON(t, ts, "POST", "/flush", "", http.StatusOK, &fl)
	if fl.Epoch != 2 || !fl.Repaired {
		t.Fatalf("flush reply = %+v", fl)
	}

	// The served values now match a from-scratch rerun on an identically
	// mutated graph, vertex by vertex over the wire.
	d, err := graph.ReadDeltaLog(strings.NewReader(muts))
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := graph.ApplyDelta(graph.Grid(15, 15, 10, 3), d)
	if err != nil {
		t.Fatal(err)
	}
	want := scratchVector(t, prog, ref, map[string]float64{"src": 0}, "dist")
	for _, u := range []int{0, 1, 16, 17, 100, 224} {
		var got valueReply
		getJSON(t, ts, "GET", fmt.Sprintf("/value/%d?field=dist", u), "", http.StatusOK, &got)
		if got.Epoch != 2 {
			t.Fatalf("vertex %d served from epoch %d, want 2", u, got.Epoch)
		}
		if got.Value != want[u] {
			t.Fatalf("vertex %d = %v over the wire, want %v (from-scratch)", u, got.Value, want[u])
		}
	}

	// Adjacency reads see the mutated topology.
	var nb neighborsReply
	getJSON(t, ts, "GET", "/neighbors/0", "", http.StatusOK, &nb)
	if nb.Epoch != 2 || nb.Degree != len(nb.Neighbors) || len(nb.Weights) != nb.Degree {
		t.Fatalf("neighbors reply = %+v", nb)
	}
	found := false
	for i, v := range nb.Neighbors {
		if v == 16 && nb.Weights[i] == 0.25 {
			found = true
		}
	}
	if !found {
		t.Fatalf("mutated arc 0->16 (w 0.25) missing from neighbors reply %+v", nb)
	}

	// Stats reflect the round trip.
	var st Stats
	getJSON(t, ts, "GET", "/stats", "", http.StatusOK, &st)
	if st.Epoch != 2 || st.MutationsAccepted != 2 || st.RepairedBatches != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHTTPErrorPaths covers every client-error reply the handlers produce.
func TestHTTPErrorPaths(t *testing.T) {
	s, _ := ssspServer(t, Config{MaxPending: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var e map[string]string
	getJSON(t, ts, "GET", "/value/abc", "", http.StatusBadRequest, &e)
	if !strings.Contains(e["error"], "bad vertex id") {
		t.Fatalf("error = %q", e["error"])
	}
	getJSON(t, ts, "GET", "/value/225", "", http.StatusNotFound, &e)
	if !strings.Contains(e["error"], "out of range") {
		t.Fatalf("error = %q", e["error"])
	}
	getJSON(t, ts, "GET", "/value/3?field=nope", "", http.StatusBadRequest, &e)
	if !strings.Contains(e["error"], `unknown field "nope"`) {
		t.Fatalf("error = %q", e["error"])
	}
	getJSON(t, ts, "GET", "/neighbors/-1", "", http.StatusBadRequest, &e)
	getJSON(t, ts, "POST", "/mutate", "frobnicate 1 2\n", http.StatusBadRequest, &e)
	if !strings.Contains(e["error"], "unknown verb") {
		t.Fatalf("error = %q", e["error"])
	}
	getJSON(t, ts, "POST", "/mutate", "# comments only\n", http.StatusBadRequest, &e)
	if !strings.Contains(e["error"], "empty mutation log") {
		t.Fatalf("error = %q", e["error"])
	}
	// Overflowing the bounded ingest log is a 503 (back-pressure), not a 4xx.
	getJSON(t, ts, "POST", "/mutate", "add 1 2\nadd 2 3\nadd 3 4\n", http.StatusServiceUnavailable, &e)
	if !strings.Contains(e["error"], "mutation log full") {
		t.Fatalf("error = %q", e["error"])
	}
	// A method mismatch is a JSON 405, not the mux's plain-text page.
	getJSON(t, ts, "GET", "/mutate", "", http.StatusMethodNotAllowed, &e)
	if !strings.Contains(e["error"], "not allowed") {
		t.Fatalf("error = %q", e["error"])
	}
}

// TestHTTPAddvPastVertexIDDiscarded: a request naming more vertices than a
// VertexID can address parses, so it is accepted, but the flush refuses it
// before sizing anything by the count — the daemon used to die there
// allocating 34 GB of offsets. The batch is discarded and counted failed,
// and reads keep answering the previous epoch.
func TestHTTPAddvPastVertexIDDiscarded(t *testing.T) {
	s, _ := ssspServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var before valueReply
	getJSON(t, ts, "GET", "/value/17", "", http.StatusOK, &before)
	getJSON(t, ts, "POST", "/mutate", "addv 4294967296\n", http.StatusAccepted, nil)
	var e map[string]string
	getJSON(t, ts, "POST", "/flush", "", http.StatusInternalServerError, &e)
	if !strings.Contains(e["error"], "VertexID can address") {
		t.Fatalf("flush error = %q", e["error"])
	}
	var st Stats
	getJSON(t, ts, "GET", "/stats", "", http.StatusOK, &st)
	if st.FailedBatches != 1 || st.Epoch != 1 || st.Pending != 0 {
		t.Fatalf("stats after the refused batch = %+v", st)
	}
	var after valueReply
	getJSON(t, ts, "GET", "/value/17", "", http.StatusOK, &after)
	if after.Epoch != 1 || after.Value != before.Value {
		t.Fatalf("read after the refused batch = %+v, before it %+v", after, before)
	}
}

// TestHTTPMalformedPaths pins the error shaping for every request shape
// that misses the typed routes: each must answer JSON (never an empty or
// plain-text body) with the right status code.
func TestHTTPMalformedPaths(t *testing.T) {
	s, _ := ssspServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path string
		wantCode     int
		wantErr      string
	}{
		// Non-integer and out-of-range ids through the typed routes.
		{"GET", "/value/abc", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/value/1.5", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/value/-1", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/value/99999999999", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/value/0x10", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/neighbors/abc", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/neighbors/1e3", http.StatusBadRequest, "bad vertex id"},
		{"GET", "/value/100000", http.StatusNotFound, "out of range"},
		{"GET", "/neighbors/100000", http.StatusNotFound, "out of range"},
		// Missing, empty, and multi-segment vertex paths.
		{"GET", "/value", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/value/", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/value/1/2", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/value/1/", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/value/abc/def", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/neighbors", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/neighbors/", http.StatusBadRequest, "bad vertex path"},
		{"GET", "/neighbors/3/x", http.StatusBadRequest, "bad vertex path"},
		// Wrong methods on every route.
		{"POST", "/value/3", http.StatusMethodNotAllowed, "not allowed"},
		{"DELETE", "/value/3", http.StatusMethodNotAllowed, "not allowed"},
		{"PUT", "/neighbors/3", http.StatusMethodNotAllowed, "not allowed"},
		{"GET", "/mutate", http.StatusMethodNotAllowed, "not allowed"},
		{"GET", "/flush", http.StatusMethodNotAllowed, "not allowed"},
		{"POST", "/healthz", http.StatusMethodNotAllowed, "not allowed"},
		{"POST", "/stats", http.StatusMethodNotAllowed, "not allowed"},
		// Unknown routes.
		{"GET", "/", http.StatusNotFound, "no such route"},
		{"GET", "/values/3", http.StatusNotFound, "no such route"},
		{"POST", "/nope", http.StatusNotFound, "no such route"},
	}
	for _, tc := range cases {
		var e map[string]string
		getJSON(t, ts, tc.method, tc.path, "", tc.wantCode, &e)
		if !strings.Contains(e["error"], tc.wantErr) {
			t.Errorf("%s %s: error = %q, want substring %q", tc.method, tc.path, e["error"], tc.wantErr)
		}
	}

	// The 405s advertise the allowed method.
	req, err := http.NewRequest("POST", ts.URL+"/value/3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if allow := resp.Header.Get("Allow"); allow != "GET" {
		t.Fatalf("Allow = %q, want GET", allow)
	}
}

// TestHTTPReadsAcrossEpochSwap drives value reads over the wire while
// mutation batches swap versions underneath, checking that every reply is
// internally consistent (epoch monotone per client, value always matching
// the epoch's published vector).
func TestHTTPReadsAcrossEpochSwap(t *testing.T) {
	s, _ := ssspServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lastEpoch := int64(0)
	for i := 0; i < 4; i++ {
		if i > 0 {
			muts := []graph.Mutation{{Op: graph.MutAddEdge, U: graph.VertexID(i), V: graph.VertexID(200 + i), W: 0.1}}
			if _, err := s.Enqueue(muts); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		var got valueReply
		getJSON(t, ts, "GET", "/value/42", "", http.StatusOK, &got)
		if got.Epoch < lastEpoch {
			t.Fatalf("epoch went backwards over the wire: %d after %d", got.Epoch, lastEpoch)
		}
		lastEpoch = got.Epoch
		cur := s.Current()
		vec, _ := cur.Field("dist")
		if got.Epoch == cur.Epoch && got.Value != vec[42] {
			t.Fatalf("epoch %d reply %v does not match published vector %v", got.Epoch, got.Value, vec[42])
		}
	}
	if lastEpoch != 4 {
		t.Fatalf("final epoch = %d, want 4", lastEpoch)
	}
}
