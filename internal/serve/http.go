package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/graph"
)

// Handler returns the server's HTTP API:
//
//	GET  /healthz            liveness ("ok")
//	GET  /stats              operational counters + published-version info
//	GET  /value/{v}          one vertex's value; ?field= selects the user
//	                         field (default: the program's first)
//	GET  /neighbors/{v}      out-neighbors (+weights on weighted graphs)
//	POST /mutate             deltaio text body (add/del/set/addv lines),
//	                         enqueued for the next repair batch
//	POST /flush              force the pending batch through now
//
// Every read reply carries the epoch, graph fingerprint and superstep of
// the version it was served from, so clients can correlate reads across
// an epoch swap.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /value/{v}", s.handleValue)
	mux.HandleFunc("GET /neighbors/{v}", s.handleNeighbors)
	mux.HandleFunc("POST /mutate", s.handleMutate)
	mux.HandleFunc("POST /flush", s.handleFlush)

	// Everything below is error shaping: without these, requests that miss
	// the method+pattern routes above fall through to the mux's plain-text
	// 404/405 pages. An API client expects machine-readable errors on every
	// path, so malformed vertex paths ("/value/", "/value/1/2"), wrong
	// methods, and unknown routes all answer JSON with the right status.
	mux.HandleFunc("/value/", s.vertexPathFallback)
	mux.HandleFunc("/value", s.vertexPathFallback)
	mux.HandleFunc("/neighbors/", s.vertexPathFallback)
	mux.HandleFunc("/neighbors", s.vertexPathFallback)
	mux.HandleFunc("/mutate", methodOnly(http.MethodPost))
	mux.HandleFunc("/flush", methodOnly(http.MethodPost))
	mux.HandleFunc("/healthz", methodOnly(http.MethodGet))
	mux.HandleFunc("/stats", methodOnly(http.MethodGet))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such route %q", r.URL.Path))
	})
	return mux
}

// vertexPathFallback answers for /value and /neighbors requests the typed
// routes did not match: wrong method (405 + Allow), a missing id
// ("/value", "/value/"), or extra/odd segments ("/value/1/2"). The
// non-integer single-segment case never reaches here — "GET /value/{v}"
// matches it and vertexArg returns the 400.
func (s *Server) vertexPathFallback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s (allow GET)", r.Method, r.URL.Path))
		return
	}
	writeError(w, http.StatusBadRequest,
		fmt.Sprintf("bad vertex path %q: want /value/{v} or /neighbors/{v} with a single numeric vertex id", r.URL.Path))
}

// methodOnly rejects the methods the typed route for the same pattern did
// not take, with a JSON 405 instead of the mux's plain-text page.
func methodOnly(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Sprintf("method %s not allowed on %s (allow %s)", r.Method, r.URL.Path, allow))
	}
}

// versionMeta is the epoch correlation block of a /flush reply. Read
// replies carry the same block, rendered once per version by renderHead.
type versionMeta struct {
	Epoch       int64  `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	Superstep   int    `json:"superstep"`
}

func metaOf(v *Version) versionMeta {
	return versionMeta{
		Epoch:       v.Epoch,
		Fingerprint: fmt.Sprintf("%016x", v.Fingerprint),
		Superstep:   v.Superstep,
	}
}

func (s *Server) handleValue(w http.ResponseWriter, r *http.Request) {
	v := s.Current()
	u, ok := s.vertexArg(w, r, v)
	if !ok {
		return
	}
	field := queryField(r.URL.RawQuery)
	if field == "" {
		field = s.fields[0]
	}
	vec, ok := v.Field(field)
	if !ok {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown field %q (have %v)", field, s.fields))
		return
	}
	bp := replyPool.Get().(*[]byte)
	b, finite := appendValueReply(*bp, v.head, u, s.quoted[field], vec[u])
	s.writeRead(w, bp, b, finite)
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	// Adjacency iteration aliases the version's (possibly file-mapped)
	// storage, so unlike value reads it needs a lifetime pin. A failed
	// Retain means the version was superseded and retired between the
	// pointer load and here; one reload reaches a version that cannot
	// have been retired yet, because retirement only happens to a version
	// that has already been replaced as current.
	v := s.Current()
	if !v.g.Retain() {
		v = s.Current()
		if !v.g.Retain() {
			writeError(w, http.StatusServiceUnavailable, "graph version churn; retry")
			return
		}
	}
	defer v.g.Release()
	u, ok := s.vertexArg(w, r, v)
	if !ok {
		return
	}
	bp := replyPool.Get().(*[]byte)
	b, finite := appendNeighborsReply(*bp, v, u)
	s.writeRead(w, bp, b, finite)
}

type mutateReply struct {
	Accepted int   `json:"accepted"`
	Pending  int   `json:"pending"`
	Epoch    int64 `json:"epoch"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	d, err := graph.ReadDeltaLog(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if d.Len() == 0 {
		writeError(w, http.StatusBadRequest, "empty mutation log")
		return
	}
	pending, err := s.Enqueue(d.Muts)
	if err != nil {
		code := http.StatusServiceUnavailable
		writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusAccepted, mutateReply{
		Accepted: d.Len(),
		Pending:  pending,
		Epoch:    s.current.Load().Epoch,
	})
}

type flushReply struct {
	versionMeta
	Repaired bool `json:"repaired"`
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	v, err := s.Flush(r.Context())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, flushReply{versionMeta: metaOf(v), Repaired: v.Repaired})
}

// vertexArg parses the {v} path segment and bounds-checks it against the
// version being served.
func (s *Server) vertexArg(w http.ResponseWriter, r *http.Request, v *Version) (graph.VertexID, bool) {
	raw := r.PathValue("v")
	u, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad vertex id %q", raw))
		return 0, false
	}
	if int(u) >= v.g.NumVertices() {
		writeError(w, http.StatusNotFound, fmt.Sprintf("vertex %d out of range (graph has %d)", u, v.g.NumVertices()))
		return 0, false
	}
	return graph.VertexID(u), true
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
