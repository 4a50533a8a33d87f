package promtext

import (
	"fmt"
	"strconv"
	"strings"
)

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Parse reads a text exposition page back, line by line, and fails on the
// first departure from the format's rules and this repository's
// conventions: every family opens with one HELP and one TYPE line before
// its samples, a family's samples are contiguous, histogram samples carry
// the _bucket/_sum/_count suffixes (buckets with an le label), label
// values use only the \\, \" and \n escapes, and every value parses as a
// float. It returns the samples with their label values unescaped.
func Parse(page string) ([]Sample, error) {
	if page == "" {
		return nil, nil
	}
	if !strings.HasSuffix(page, "\n") {
		return nil, fmt.Errorf("page does not end in a newline")
	}
	types := map[string]string{}
	helps := map[string]bool{}
	closed := map[string]bool{}
	var current string
	var samples []Sample
	open := func(name string) error {
		if name != current {
			if closed[name] {
				return fmt.Errorf("family %s reopened after other families", name)
			}
			if current != "" {
				closed[current] = true
			}
			current = name
		}
		return nil
	}
	for i, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			if !validName(name) {
				return nil, fail("bad metric name")
			}
			if helps[name] || types[name] != "" {
				return nil, fail("HELP must come once, before TYPE")
			}
			if _, err := unescape(text, false); err != nil {
				return nil, fail("%v", err)
			}
			if err := open(name); err != nil {
				return nil, fail("%v", err)
			}
			helps[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if !helps[name] || current != name {
				return nil, fail("TYPE without a preceding HELP")
			}
			if types[name] != "" {
				return nil, fail("second TYPE line")
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				return nil, fail("unknown type %q", typ)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			return nil, fail("unexpected comment or blank line")
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fail("%v", err)
		}
		family := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.Name, suffix); ok && types[base] == "histogram" {
				family = base
				if _, ok := s.Labels["le"]; ok != (suffix == "_bucket") {
					return nil, fail("le label must appear on exactly the _bucket samples")
				}
			}
		}
		if types[family] == "" {
			return nil, fail("sample before its family's TYPE line")
		}
		if types[family] == "histogram" && family == s.Name {
			return nil, fail("histogram sample without a suffix")
		}
		if err := open(family); err != nil {
			return nil, fail("%v", err)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	end := strings.IndexAny(line, "{ ")
	if end < 0 {
		return s, fmt.Errorf("no value")
	}
	s.Name, line = line[:end], line[end:]
	if !validName(s.Name) {
		return s, fmt.Errorf("bad metric name")
	}
	if rest, ok := strings.CutPrefix(line, "{"); ok {
		line = rest
		for {
			eq := strings.Index(line, `="`)
			if eq < 0 {
				return s, fmt.Errorf("bad label pair")
			}
			name := line[:eq]
			if !validName(name) || strings.Contains(name, ":") {
				return s, fmt.Errorf("bad label name %q", name)
			}
			if _, dup := s.Labels[name]; dup {
				return s, fmt.Errorf("duplicate label %q", name)
			}
			value, n, err := scanQuoted(line[eq+2:])
			if err != nil {
				return s, err
			}
			s.Labels[name] = value
			line = line[eq+2+n:]
			if rest, ok := strings.CutPrefix(line, ","); ok {
				line = rest
				continue
			}
			if rest, ok := strings.CutPrefix(line, "}"); ok {
				line = rest
				break
			}
			return s, fmt.Errorf("label set not closed")
		}
	}
	value, ok := strings.CutPrefix(line, " ")
	if !ok {
		return s, fmt.Errorf("no space before the value")
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %v", err)
	}
	s.Value = v
	return s, nil
}

// scanQuoted unescapes a label value up to its closing quote and returns
// it with the number of bytes consumed, quote included.
func scanQuoted(s string) (string, int, error) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			v, err := unescape(s[:i], true)
			return v, i + 1, err
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// unescape decodes \\ and \n, plus \" inside label values; any other
// backslash sequence is invalid.
func unescape(s string, label bool) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch {
		case i < len(s) && s[i] == '\\':
			b.WriteByte('\\')
		case i < len(s) && s[i] == 'n':
			b.WriteByte('\n')
		case i < len(s) && s[i] == '"' && label:
			b.WriteByte('"')
		default:
			return "", fmt.Errorf("invalid escape in %q", s)
		}
	}
	return b.String(), nil
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
