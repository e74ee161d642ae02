package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Read replies (/value and /neighbors) are appended straight into a pooled
// buffer. The bytes are exactly what encoding/json's Encoder with
// SetIndent("", "  ") writes for the same reply struct — the tests keep that
// writer as the oracle — without reflection, an indentation pass, or a
// per-read allocation. Every other reply still goes through writeJSON.

// renderHead renders the constant head of every read reply served from one
// version: the epoch correlation block, up to and including the "vertex"
// key. buildVersion calls it once per version; readers only copy the bytes.
func renderHead(epoch int64, fingerprint uint64, superstep int) []byte {
	return fmt.Appendf(nil, "{\n  \"epoch\": %d,\n  \"fingerprint\": \"%016x\",\n  \"superstep\": %d,\n  \"vertex\": ",
		epoch, fingerprint, superstep)
}

// appendFloat appends x as encoding/json renders a float64: 'f' format, or
// 'e' format when |x| < 1e-6 or |x| ≥ 1e21, with a two-digit negative
// exponent shortened ("e-07" → "e-7"). It reports false for ±Inf and NaN,
// which encoding/json refuses to encode; the read reply is then sent with an
// empty body (see writeRead). Giving such a reply a body is a change to
// this function alone.
func appendFloat(b []byte, x float64) ([]byte, bool) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendValueReply appends the /value reply for vertex u of the version
// whose head is given; quotedField is the field name as a JSON string.
func appendValueReply(b, head []byte, u graph.VertexID, quotedField []byte, x float64) ([]byte, bool) {
	b = append(b, head...)
	b = strconv.AppendUint(b, uint64(u), 10)
	b = append(b, ",\n  \"field\": "...)
	b = append(b, quotedField...)
	b = append(b, ",\n  \"value\": "...)
	b, ok := appendFloat(b, x)
	return append(b, "\n}\n"...), ok
}

// appendNeighborsReply appends the /neighbors reply for vertex u of v,
// streaming v's out-arcs; the caller holds v's Retain pin. "neighbors" is
// [] for a vertex without out-arcs, and "weights" is left out when the
// graph is unweighted or the list is empty, as omitempty leaves it out.
func appendNeighborsReply(b []byte, v *Version, u graph.VertexID) ([]byte, bool) {
	b = append(b, v.head...)
	b = strconv.AppendUint(b, uint64(u), 10)
	b = append(b, ",\n  \"degree\": "...)
	b = strconv.AppendInt(b, int64(v.g.OutDegree(u)), 10)
	b = append(b, ",\n  \"neighbors\": ["...)
	n := 0
	for it := v.g.OutArcs(u); it.Next(); n++ {
		b = appendElemSep(b, n)
		b = strconv.AppendUint(b, uint64(it.To()), 10)
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, ']')
	if n > 0 && v.g.Weighted() {
		b = append(b, ",\n  \"weights\": ["...)
		i := 0
		for it := v.g.OutArcs(u); it.Next(); i++ {
			b = appendElemSep(b, i)
			var ok bool
			if b, ok = appendFloat(b, it.Weight()); !ok {
				return b, false
			}
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), true
}

// appendElemSep opens element i of an indented array nested one level.
func appendElemSep(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(b, "\n    "...)
}

// replyPool holds read-reply buffers. A buffer grown past maxPooledReply
// (a hub's adjacency) is dropped rather than pinned in the pool.
var replyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

const maxPooledReply = 64 << 10

// jsonContentType is assigned to the header map directly: Header().Set
// would allocate a fresh slice per reply. It is shared, so never modified.
var jsonContentType = []string{"application/json"}

// writeRead sends a read reply built in the pooled buffer bp (b is its
// grown contents) and counts the read. A reply that holds a non-finite
// value goes out as a 200 with an empty body, which is what writeJSON's
// failed Encode sent.
func (s *Server) writeRead(w http.ResponseWriter, bp *[]byte, b []byte, finite bool) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if finite {
		_, _ = w.Write(b) // a failed write means the client is gone; nobody is left to tell
	}
	s.reads.Add(1)
	if cap(b) <= maxPooledReply {
		*bp = b[:0]
		replyPool.Put(bp)
	}
}

// queryField returns url.ParseQuery(raw).Get("field") without building the
// map: pairs holding ';' are skipped, so are pairs whose key or value does
// not unescape, and the first "field" pair wins. url.QueryUnescape returns
// a string without escapes as it is, so the scan allocates only for an
// escaped key or value.
func queryField(raw string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key, err := url.QueryUnescape(key); err != nil || key != "field" {
			continue
		}
		if value, err := url.QueryUnescape(value); err == nil {
			return value
		}
	}
	return ""
}
