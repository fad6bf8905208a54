package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Family is one metric family: its metadata (Help unescaped) and every
// sample line that belongs to it, as ParseText reads and WriteText writes it.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseText reads Prometheus text exposition format (version 0.0.4) and
// validates the structural rules this repository's writer guarantees:
//
//   - every family is announced by a # HELP line followed by a # TYPE line
//     before any of its samples;
//   - family names are unique;
//   - every sample name matches the current family — exactly, or with a
//     _bucket/_sum/_count suffix for histograms;
//   - sample lines parse (name, optional {label="value"} pairs, float
//     value) and no (name, labels) pair repeats;
//   - histogram _bucket series are cumulative (non-decreasing in le order,
//     ending at +Inf) and agree with _count.
//
// It is the verifier behind the /metrics tests and the reader behind
// bvqload, the benchmark and the router's fleet page.
func ParseText(r io.Reader) ([]Family, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var fams []Family
	seenFam := make(map[string]bool)
	seenSample := make(map[string]bool)
	var cur *Family
	pendingHelp := "" // HELP seen, TYPE not yet
	var pendingHelpText string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without a metric name", lineNo)
			}
			if seenFam[name] {
				return nil, fmt.Errorf("line %d: duplicate metric family %q", lineNo, name)
			}
			// A CRLF line loses one \r to the scanner; the help text loses the rest.
			pendingHelp, pendingHelpText = name, helpUnescaper.Replace(strings.TrimRight(help, "\r"))
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			if pendingHelp != name {
				return nil, fmt.Errorf("line %d: TYPE %s not preceded by its HELP line", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
			}
			seenFam[name] = true
			fams = append(fams, Family{Name: name, Help: pendingHelpText, Type: typ})
			cur = &fams[len(fams)-1]
			pendingHelp = ""
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: sample %s before any # TYPE line", lineNo, s.Name)
		}
		if !sampleBelongs(s.Name, cur.Name, cur.Type) {
			return nil, fmt.Errorf("line %d: sample %s under family %s", lineNo, s.Name, cur.Name)
		}
		id := s.Name + labelKey(s.Labels)
		if seenSample[id] {
			return nil, fmt.Errorf("line %d: duplicate sample %s", lineNo, id)
		}
		seenSample[id] = true
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if pendingHelp != "" {
		return nil, fmt.Errorf("HELP %s has no TYPE line", pendingHelp)
	}
	for i := range fams {
		if fams[i].Type == "histogram" {
			if err := checkHistogram(&fams[i]); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// helpUnescaper undoes escapeHelp; a backslash before any other byte stays.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

func sampleBelongs(sample, fam, typ string) bool {
	if sample == fam {
		return true
	}
	if typ != "histogram" {
		return false
	}
	rest, ok := strings.CutPrefix(sample, fam)
	if !ok {
		return false
	}
	return rest == "_bucket" || rest == "_sum" || rest == "_count"
}

// checkHistogram verifies cumulativity per label set: bucket values are
// non-decreasing in le order, a +Inf bucket exists, and it equals _count.
func checkHistogram(f *Family) error {
	type series struct {
		last    float64
		haveInf bool
		inf     float64
		count   float64
	}
	groups := make(map[string]*series)
	get := func(labels map[string]string) *series {
		base := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				base[k] = v
			}
		}
		key := labelKey(base)
		g, ok := groups[key]
		if !ok {
			g = &series{}
			groups[key] = g
		}
		return g
	}
	for _, s := range f.Samples {
		g := get(s.Labels)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le := s.Labels["le"]
			if s.Value < g.last {
				return fmt.Errorf("%s: bucket le=%s value %g below previous %g (not cumulative)", f.Name, le, s.Value, g.last)
			}
			g.last = s.Value
			if le == "+Inf" {
				g.haveInf = true
				g.inf = s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			g.count = s.Value
		}
	}
	for key, g := range groups {
		if !g.haveInf {
			return fmt.Errorf("%s%s: no le=\"+Inf\" bucket", f.Name, key)
		}
		if g.inf != g.count {
			return fmt.Errorf("%s%s: +Inf bucket %g != count %g", f.Name, key, g.inf, g.count)
		}
	}
	return nil
}

// parseSample parses one sample line: name[{labels}] value [timestamp].
func parseSample(line string) (Sample, error) {
	var s Sample
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("%s: %w", s.Name, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("%s: want value (and optional timestamp), got %q", s.Name, rest)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("%s: bad value %q: %w", s.Name, fields[0], err)
	}
	s.Value = v
	return s, nil
}

func parseValue(tok string) (float64, error) {
	switch tok {
	case "+Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(tok, 64)
}

// parseLabels parses a {k="v",...} block starting at s[0] == '{' and
// returns the index just past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		j := i
		for j < len(s) && isNameChar(s[j], j == i) {
			j++
		}
		if j == i || j >= len(s) || s[j] != '=' || j+1 >= len(s) || s[j+1] != '"' {
			return 0, nil, fmt.Errorf("malformed label at %q", s[i:])
		}
		name := s[i:j]
		k := j + 2 // past ="
		var val strings.Builder
		for k < len(s) && s[k] != '"' {
			if s[k] == '\\' && k+1 < len(s) {
				k++
				switch s[k] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[k])
				default:
					val.WriteByte('\\')
					val.WriteByte(s[k])
				}
			} else {
				val.WriteByte(s[k])
			}
			k++
		}
		if k >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label value for %s", name)
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		k++ // past closing quote
		if k < len(s) && s[k] == ',' {
			k++
		}
		i = k
	}
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}
