// Package querybody owns the /query request body format: Request, the fields
// a body carries, and Scan, the one pass bvqd and bvqrouter read a body in.
//
// Scan decodes exactly the bodies encoding/json would decode without error
// into Request with unknown fields disallowed, and only those whose reading
// is plain: the keys are spelled as the json tags, once each, and every value
// has its field's JSON type. String escapes are decoded. Anything else — an
// unknown, case-folded, escaped or repeated key, null, a number with a
// fraction or an exponent or out of int's range, a lone UTF-16 surrogate,
// invalid UTF-8, bytes after the object — is refused, and the caller hands
// the body to encoding/json, whose answer (a decoding, or the error a client
// is sent) then stays what it always was. The package imports nothing else
// of this module, so the router reads bodies without linking the engine.
package querybody

import (
	"encoding/json"
	"unicode/utf16"
	"unicode/utf8"
)

// Request is the /query request body, field for field server.QueryRequest,
// which documents the fields and converts from it.
type Request struct {
	Database  string `json:"database"`
	Query     string `json:"query"`
	Engine    string `json:"engine,omitempty"`
	Backend   string `json:"backend,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
	Stream    bool   `json:"stream,omitempty"`
	Limit     int    `json:"limit,omitempty"`
	Offset    int    `json:"offset,omitempty"`
	Explain   bool   `json:"explain,omitempty"`
}

// Scan decodes body into *r and reports whether it could; on false *r is
// unspecified and the body is encoding/json's to read.
func Scan(body []byte, r *Request) bool {
	*r = Request{}
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	if i = skipSpace(body, i+1); i < len(body) && body[i] == '}' {
		return skipSpace(body, i+1) == len(body)
	}
	var seen uint16
	for {
		if i == len(body) || body[i] != '"' {
			return false
		}
		j := i + 1
		for j < len(body) && body[j] != '"' && body[j] != '\\' && body[j] >= ' ' && body[j] < utf8.RuneSelf {
			j++
		}
		if j == len(body) || body[j] != '"' {
			return false
		}
		key := body[i+1 : j]
		if i = skipSpace(body, j+1); i == len(body) || body[i] != ':' {
			return false
		}
		i = skipSpace(body, i+1)
		var bit uint16
		ok := false
		switch string(key) {
		case "database":
			bit = 1 << 0
			r.Database, i, ok = scanString(body, i)
		case "query":
			bit = 1 << 1
			r.Query, i, ok = scanString(body, i)
		case "engine":
			bit = 1 << 2
			r.Engine, i, ok = scanString(body, i)
		case "backend":
			bit = 1 << 3
			r.Backend, i, ok = scanString(body, i)
		case "timeout_ms":
			bit = 1 << 4
			r.TimeoutMS, i, ok = scanInt(body, i)
		case "no_cache":
			bit = 1 << 5
			r.NoCache, i, ok = scanBool(body, i)
		case "stream":
			bit = 1 << 6
			r.Stream, i, ok = scanBool(body, i)
		case "limit":
			bit = 1 << 7
			r.Limit, i, ok = scanInt(body, i)
		case "offset":
			bit = 1 << 8
			r.Offset, i, ok = scanInt(body, i)
		case "explain":
			bit = 1 << 9
			r.Explain, i, ok = scanBool(body, i)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if i = skipSpace(body, i); i == len(body) {
			return false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return skipSpace(body, i+1) == len(body)
		default:
			return false
		}
	}
}

// Probe returns the fields bvqrouter routes a body by: Scan's reading, or
// encoding/json's of the body's database, query and stream (other fields
// unread, case-folded keys matched) when Scan refuses the body. Its error is
// the body's being no JSON object at all.
func Probe(body []byte) (Request, error) {
	var r Request
	if Scan(body, &r) {
		return r, nil
	}
	var p queryProbe
	err := json.Unmarshal(body, &p)
	return Request{Database: p.Database, Query: p.Query, Stream: p.Stream}, err
}

// queryProbe is what Probe reads of a body Scan refuses. Its name is in the
// errors encoding/json gives, which the router's 400 quotes.
type queryProbe struct {
	Database string `json:"database"`
	Query    string `json:"query"`
	Stream   bool   `json:"stream"`
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads the JSON string at b[i:], escapes decoded, and returns it
// with the index past its closing quote.
func scanString(b []byte, i int) (string, int, bool) {
	if i == len(b) || b[i] != '"' {
		return "", i, false
	}
	var stack [256]byte
	out := stack[:0]
	for i++; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			return string(out), i + 1, true
		case c < ' ':
			return "", i, false
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return "", i, false // encoding/json would substitute U+FFFD
			}
			out, i = append(out, b[i:i+n]...), i+n
		case i+1 == len(b):
			return "", i, false
		default:
			esc := b[i+1]
			i += 2
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b, i)
				if r < 0 {
					return "", i, false
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by a low one; a lone half
					// is encoding/json's to replace.
					lo := rune(-1)
					if i+1 < len(b) && b[i] == '\\' && b[i+1] == 'u' {
						lo = hex4(b, i+2)
					}
					if r = utf16.DecodeRune(r, lo); r == utf8.RuneError {
						return "", i, false
					}
					i += 6
				}
				out = utf8.AppendRune(out, r)
			default:
				return "", i, false
			}
		}
	}
	return "", i, false
}

// hex4 returns the rune of the four hex digits at b[i:], or -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// scanInt reads a JSON integer at b[i:] that fits an int: no fraction, no
// exponent, no leading zero.
func scanInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (1<<63-d)/10 { // past -(1<<63), the most negative int
			return 0, i, false
		}
		u = u*10 + d
	}
	switch {
	case i == start, b[start] == '0' && i > start+1, !neg && u > 1<<63-1:
		return 0, i, false
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, i, false
	case neg:
		return int(-u), i, true
	}
	return int(u), i, true
}

// scanBool reads a JSON true or false at b[i:].
func scanBool(b []byte, i int) (bool, int, bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}
