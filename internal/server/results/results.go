// Package results implements the SPARQL 1.1 Query Results formats the
// protocol endpoint serves: streaming serializers for the JSON, XML, CSV
// and TSV result sets plus the Accept-header content negotiation that
// picks between them. Every serializer is one Writer, the server's only
// row writer, and it owns everything between a row of IDs and the
// response bytes: the row loop, a per-request term table of encoded
// terms keyed by (role, ID), the byte policy of pooled buffers and the
// StreamAt threshold. Raw terms come from the store's dictionary cursors
// (store.Renderer). The steady-state row path allocates nothing in any of
// the four formats.
package results

import (
	"strconv"
	"strings"
)

// Format is one of the supported SPARQL result serializations.
type Format uint8

// The four formats, in server preference order: when an Accept header
// rates several of them equally (including */*), the earlier one wins.
const (
	JSON Format = iota // application/sparql-results+json
	XML                // application/sparql-results+xml
	CSV                // text/csv (RFC 4180 plain values)
	TSV                // text/tab-separated-values (N-Triples terms)
	numFormats
)

// String names the format for logs, tables and bench gate keys.
func (f Format) String() string {
	switch f {
	case JSON:
		return "json"
	case XML:
		return "xml"
	case CSV:
		return "csv"
	case TSV:
		return "tsv"
	}
	return "format(" + strconv.Itoa(int(f)) + ")"
}

// ContentType is the media type a response in this format carries.
func (f Format) ContentType() string {
	switch f {
	case JSON:
		return "application/sparql-results+json"
	case XML:
		return "application/sparql-results+xml"
	case CSV:
		return "text/csv; charset=utf-8"
	case TSV:
		return "text/tab-separated-values; charset=utf-8"
	}
	return "application/octet-stream"
}

// Formats lists the supported formats in server preference order.
func Formats() []Format { return []Format{JSON, XML, CSV, TSV} }

// mediaType is one concrete media type the server can produce. Aliases
// (application/json, application/xml) map to the same formats as the
// canonical SPARQL result types so generic clients negotiate cleanly.
type mediaType struct {
	typ, sub string
	f        Format
}

var supported = [...]mediaType{
	{"application", "sparql-results+json", JSON},
	{"application", "json", JSON},
	{"application", "sparql-results+xml", XML},
	{"application", "xml", XML},
	{"text", "csv", CSV},
	{"text", "tab-separated-values", TSV},
}

// SupportedTypes lists the concrete media types negotiation accepts, for
// 406 error messages.
func SupportedTypes() string {
	parts := make([]string, len(supported))
	for i, m := range supported {
		parts[i] = m.typ + "/" + m.sub
	}
	return strings.Join(parts, ", ")
}

// specificity ranks how precisely an Accept media range names a type:
// exact type/subtype beats type/*, which beats */*.
const (
	specAny  = iota // */*
	specType        // type/*
	specFull        // type/subtype
)

// Negotiate picks the response format for an Accept header per RFC 9110
// section 12.5.1: each supported media type takes the quality value of
// the most specific range matching it, the highest-quality type wins,
// and ties break toward the server preference order (JSON first). An
// absent or empty header accepts anything and yields JSON. ok=false
// means no supported type is acceptable — the caller answers 406.
func Negotiate(accept string) (Format, bool) {
	if strings.TrimSpace(accept) == "" {
		return JSON, true
	}
	// Per supported entry: specificity and quality of the best-matching
	// range seen so far. -1 quality marks "no range matched". The header
	// is scanned in place: negotiation runs on every request and
	// allocates nothing.
	var spec [len(supported)]int
	var qual [len(supported)]float64
	for i := range qual {
		qual[i] = -1
	}
	for rest := accept; rest != ""; {
		var elem string
		elem, rest, _ = strings.Cut(rest, ",")
		rng, q := parseRange(elem)
		typ, sub, ok := strings.Cut(rng, "/")
		if !ok {
			continue
		}
		for i, m := range supported {
			var sp int
			switch {
			case strings.EqualFold(typ, m.typ) && strings.EqualFold(sub, m.sub):
				sp = specFull
			case strings.EqualFold(typ, m.typ) && sub == "*":
				sp = specType
			case typ == "*" && sub == "*":
				sp = specAny
			default:
				continue
			}
			if sp > spec[i] || qual[i] < 0 {
				spec[i], qual[i] = sp, q
			} else if sp == spec[i] && q > qual[i] {
				// Equally specific ranges: the more permissive wins
				// (listing a type twice should not hide it).
				qual[i] = q
			}
		}
	}
	best, bestQ := Format(0), 0.0
	found := false
	for i, m := range supported {
		if qual[i] <= 0 {
			continue
		}
		// Strictly-greater keeps the first (most preferred) entry on
		// ties; supported[] is ordered by server preference.
		if !found || qual[i] > bestQ {
			best, bestQ, found = m.f, qual[i], true
		}
	}
	return best, found
}

// parseRange splits one Accept list element into its media range, with
// the surrounding space trimmed, and its quality value. A malformed or
// absent q parameter reads as 1.0 (the header's default); q is clamped
// to [0, 1].
func parseRange(elem string) (string, float64) {
	rng, params, _ := strings.Cut(elem, ";")
	q := 1.0
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		k, v, ok := strings.Cut(p, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			q = min(max(f, 0), 1)
		}
	}
	return strings.TrimSpace(rng), q
}
