package database

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/relation"
)

// Encode renders the database in the paper's "standard encoding" (§2.1):
// domain elements and tuple components as binary numerals, e.g. the database
// ({3,5,7}; {⟨3,5⟩, ⟨5,7⟩}) encodes as
//
//	({11,101,111},{<11,101>,<101,111>})
//
// Relations appear positionally in declaration order. The encoding's length
// is the "length of the data" against which data and combined complexity are
// measured.
func (db *Database) Encode() string {
	var sb strings.Builder
	sb.WriteByte('(')
	sb.WriteByte('{')
	for i, v := range db.domain {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(int64(v), 2))
	}
	sb.WriteByte('}')
	for _, name := range db.names {
		sb.WriteByte(',')
		sb.WriteByte('{')
		sep := "<"
		db.eachValue(name, func(t relation.Tuple) {
			sb.WriteString(sep)
			sep = ",<"
			for j, v := range t {
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.FormatInt(int64(v), 2))
			}
			sb.WriteByte('>')
		})
		sb.WriteByte('}')
	}
	sb.WriteByte(')')
	return sb.String()
}

// EncodedLen returns the length of the standard encoding.
func (db *Database) EncodedLen() int { return len(db.Encode()) }

// RelDecl names one positional relation of a standard encoding.
type RelDecl struct {
	Name  string
	Arity int
}

// DecodeEncoded parses the paper's standard encoding (see Encode). The
// encoding is positional and carries no relation names or arities, so the
// caller may supply declarations; with none, relations are named R1, R2, …
// and arities are inferred from the first tuple (an empty relation without
// a declaration decodes with arity 0).
func DecodeEncoded(s string, decls ...RelDecl) (*Database, error) {
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return nil, fmt.Errorf("database: encoding must be parenthesized")
	}
	groups, err := splitEncodedGroups(s[1 : len(s)-1])
	if err != nil {
		return nil, err
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("database: encoding has no domain group")
	}
	if len(decls) > 0 && len(decls) != len(groups)-1 {
		return nil, fmt.Errorf("database: %d declarations for %d relations", len(decls), len(groups)-1)
	}
	b := NewBuilder()
	// Domain group: comma-separated binary numerals.
	if groups[0] != "" {
		for _, f := range strings.Split(groups[0], ",") {
			v, err := strconv.ParseInt(f, 2, 64)
			if err != nil {
				return nil, fmt.Errorf("database: bad domain numeral %q", f)
			}
			b.Domain(int(v))
		}
	}
	for gi, g := range groups[1:] {
		decl := RelDecl{Name: fmt.Sprintf("R%d", gi+1), Arity: -1}
		if len(decls) > 0 {
			decl = decls[gi]
		}
		tuples, err := splitEncodedTuples(g)
		if err != nil {
			return nil, err
		}
		arity := decl.Arity
		if arity < 0 {
			arity = 0
			if len(tuples) > 0 {
				arity = len(tuples[0])
			}
		}
		b.Relation(decl.Name, arity)
		for _, t := range tuples {
			vals := make([]int, len(t))
			for i, f := range t {
				v, err := strconv.ParseInt(f, 2, 64)
				if err != nil {
					return nil, fmt.Errorf("database: bad tuple numeral %q", f)
				}
				vals[i] = int(v)
			}
			b.Add(decl.Name, vals...)
		}
	}
	return b.Build()
}

// splitEncodedGroups splits "{...},{...},{...}" at top-level commas.
func splitEncodedGroups(s string) ([]string, error) {
	var out []string
	i := 0
	for i < len(s) {
		if s[i] != '{' {
			return nil, fmt.Errorf("database: expected '{' at offset %d of encoding body", i)
		}
		j := strings.IndexByte(s[i:], '}')
		if j < 0 {
			return nil, fmt.Errorf("database: unclosed group in encoding")
		}
		out = append(out, s[i+1:i+j])
		i += j + 1
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("database: expected ',' between groups at offset %d", i)
			}
			i++
		}
	}
	return out, nil
}

// splitEncodedTuples splits "<11,101>,<101,111>" into numeral lists.
func splitEncodedTuples(g string) ([][]string, error) {
	var out [][]string
	i := 0
	for i < len(g) {
		switch g[i] {
		case ',':
			i++
		case '<':
			j := strings.IndexByte(g[i:], '>')
			if j < 0 {
				return nil, fmt.Errorf("database: unclosed tuple in encoding")
			}
			body := g[i+1 : i+j]
			if body == "" {
				out = append(out, nil)
			} else {
				out = append(out, strings.Split(body, ","))
			}
			i += j + 1
		default:
			return nil, fmt.Errorf("database: unexpected character %q in relation group", g[i])
		}
	}
	return out, nil
}

// Parse reads the readable text format produced by Database.String:
//
//	domain = {3, 5, 7}
//	E/2 = {(3, 5), (5, 7)}
//	P/1 = {(3)}
//
// Blank lines and lines starting with '#' are ignored. The domain line is
// optional; the domain is always extended with every value mentioned in a
// tuple.
func Parse(text string) (*Database, error) {
	b := NewBuilder()
	for lineno, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("database: line %d: missing '='", lineno+1)
		}
		head := strings.TrimSpace(line[:eq])
		body := strings.TrimSpace(line[eq+1:])
		if !strings.HasPrefix(body, "{") || !strings.HasSuffix(body, "}") {
			return nil, fmt.Errorf("database: line %d: body must be {...}", lineno+1)
		}
		body = strings.TrimSpace(body[1 : len(body)-1])
		if head == "domain" {
			if body == "" {
				continue
			}
			for _, f := range strings.Split(body, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return nil, fmt.Errorf("database: line %d: bad domain element %q", lineno+1, f)
				}
				b.Domain(v)
			}
			continue
		}
		slash := strings.Index(head, "/")
		if slash < 0 {
			return nil, fmt.Errorf("database: line %d: relation head %q must be name/arity", lineno+1, head)
		}
		name := strings.TrimSpace(head[:slash])
		arity, err := strconv.Atoi(strings.TrimSpace(head[slash+1:]))
		if err != nil {
			return nil, fmt.Errorf("database: line %d: bad arity in %q", lineno+1, head)
		}
		b.Relation(name, arity)
		if body == "" {
			continue
		}
		tuples, err := splitTuples(body)
		if err != nil {
			return nil, fmt.Errorf("database: line %d: %v", lineno+1, err)
		}
		for _, ts := range tuples {
			var vals []int
			if ts != "" {
				for _, f := range strings.Split(ts, ",") {
					v, err := strconv.Atoi(strings.TrimSpace(f))
					if err != nil {
						return nil, fmt.Errorf("database: line %d: bad tuple component %q", lineno+1, f)
					}
					vals = append(vals, v)
				}
			}
			b.Add(name, vals...)
		}
	}
	return b.Build()
}

// splitTuples splits "(1, 2), (3, 4)" into ["1, 2", "3, 4"].
func splitTuples(body string) ([]string, error) {
	var out []string
	for i := 0; i < len(body); {
		switch body[i] {
		case ' ', ',', '\t':
			i++
		case '(':
			j := strings.IndexByte(body[i:], ')')
			if j < 0 {
				return nil, fmt.Errorf("unclosed tuple")
			}
			out = append(out, strings.TrimSpace(body[i+1:i+j]))
			i += j + 1
		default:
			return nil, fmt.Errorf("unexpected character %q in tuple list", body[i])
		}
	}
	return out, nil
}
