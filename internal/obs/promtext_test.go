package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// parseProm is a strict parser for the Prometheus text exposition format
// (version 0.0.4). TestMetricsStrictFormat runs every /metrics render through
// it so new series cannot drift out of scrape compatibility.
//
// "Strict" means the parser enforces what a real Prometheus scraper assumes
// rather than what it happens to tolerate: metric and label names match the
// spec grammar, label values are properly quoted and escaped, every sample
// belongs to a # TYPE-declared family, # HELP/# TYPE precede their family's
// samples and appear at most once, families are contiguous (no
// interleaving), and histogram families only emit _bucket/_sum/_count
// suffixed samples. Any violation is an error naming the offending line;
// families come back in document order.
func parseProm(r io.Reader) ([]promFamily, error) {
	p := promParser{index: map[string]int{}, closed: map[string]bool{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for lineno := 1; sc.Scan(); lineno++ {
		if err := p.line(strings.TrimRight(sc.Text(), " \t")); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p.families, nil
}

// findFamily returns the family with the given name, or nil.
func findFamily(fams []promFamily, name string) *promFamily {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// promFamily is one metric family: its # HELP/# TYPE metadata and samples.
type promFamily struct {
	Name, Help, Type string
	Samples          []promSample
}

// promSample is one sample line. Name is the full metric name, so for
// histogram families it includes the _bucket/_sum/_count suffix.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

var (
	promNameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promTypes   = map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true}
)

type promParser struct {
	families []promFamily
	index    map[string]int // family name -> position in families
	// cur is the family the document is currently emitting; once another
	// family starts, returning to cur is a contiguity violation.
	cur    string
	closed map[string]bool
}

// enter switches the document to family name, creating it on first sight.
func (p *promParser) enter(name string) (*promFamily, error) {
	if p.cur != name {
		if p.closed[name] {
			return nil, fmt.Errorf("family %q is not contiguous (reopened after another family started)", name)
		}
		if p.cur != "" {
			p.closed[p.cur] = true
		}
		p.cur = name
	}
	i, ok := p.index[name]
	if !ok {
		i = len(p.families)
		p.index[name] = i
		p.families = append(p.families, promFamily{Name: name})
	}
	return &p.families[i], nil
}

func (p *promParser) line(s string) error {
	switch {
	case s == "":
		return nil
	case strings.HasPrefix(s, "#"):
		return p.comment(s)
	}
	return p.sample(s)
}

func (p *promParser) comment(s string) error {
	fields := strings.SplitN(s, " ", 4)
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil // a bare comment
	}
	kind := fields[1]
	if len(fields) < 3 || (kind == "TYPE" && len(fields) != 4) {
		return fmt.Errorf("malformed %s line %q", kind, s)
	}
	name := fields[2]
	if !promNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q in %s", name, kind)
	}
	if kind == "TYPE" && !promTypes[fields[3]] {
		return fmt.Errorf("invalid metric type %q for %q", fields[3], name)
	}
	f, err := p.enter(name)
	if err != nil {
		return err
	}
	if len(f.Samples) > 0 {
		return fmt.Errorf("%s for %q after its samples", kind, name)
	}
	text := &f.Type
	if kind == "HELP" {
		text = &f.Help
	}
	if *text != "" {
		return fmt.Errorf("duplicate %s for %q", kind, name)
	}
	if len(fields) == 4 {
		*text = fields[3]
	}
	if *text == "" {
		return fmt.Errorf("empty HELP text for %q", name)
	}
	return nil
}

func (p *promParser) sample(s string) error {
	end := strings.IndexAny(s, "{ ")
	if end < 0 {
		return fmt.Errorf("malformed sample line %q", s)
	}
	name, rest := s[:end], strings.TrimLeft(s[end:], " ")
	if !promNameRE.MatchString(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		var err error
		if rest, err = parseLabels(rest, labels); err != nil {
			return fmt.Errorf("sample %q: %w", name, err)
		}
	}
	valueFields := strings.Fields(rest)
	if len(valueFields) < 1 || len(valueFields) > 2 {
		return fmt.Errorf("sample %q: expected value [timestamp], got %q", name, rest)
	}
	value, err := parsePromValue(valueFields[0])
	if err != nil {
		return fmt.Errorf("sample %q: %w", name, err)
	}
	if len(valueFields) == 2 {
		if _, err := strconv.ParseInt(valueFields[1], 10, 64); err != nil {
			return fmt.Errorf("sample %q: invalid timestamp %q", name, valueFields[1])
		}
	}
	// Histogram and summary series drop their suffix to name their family.
	fam := name
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if i, exists := p.index[base]; exists && (p.families[i].Type == "histogram" || p.families[i].Type == "summary") {
				fam = base
				break
			}
		}
	}
	f, err := p.enter(fam)
	if err != nil {
		return err
	}
	if f.Type == "" {
		return fmt.Errorf("sample %q has no preceding # TYPE", name)
	}
	if f.Type == "histogram" && name == fam {
		return fmt.Errorf("histogram %q emits bare sample (want _bucket/_sum/_count)", fam)
	}
	f.Samples = append(f.Samples, promSample{Name: name, Labels: labels, Value: value})
	return nil
}

// parseLabels consumes a {name="value",...} block and returns the remainder.
func parseLabels(s string, out map[string]string) (rest string, err error) {
	s = s[1:] // consume {
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return strings.TrimLeft(s[1:], " "), nil
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return "", fmt.Errorf("malformed label block near %q", s)
		}
		lname := strings.TrimSpace(s[:eq])
		if !promLabelRE.MatchString(lname) {
			return "", fmt.Errorf("invalid label name %q", lname)
		}
		s = strings.TrimLeft(s[eq+1:], " ")
		if !strings.HasPrefix(s, `"`) {
			return "", fmt.Errorf("label %q value not quoted", lname)
		}
		val, n, err := unquoteLabel(s)
		if err != nil {
			return "", fmt.Errorf("label %q: %w", lname, err)
		}
		if _, dup := out[lname]; dup {
			return "", fmt.Errorf("duplicate label %q", lname)
		}
		out[lname] = val
		s = strings.TrimLeft(s[n:], " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if !strings.HasPrefix(s, "}") {
			return "", fmt.Errorf("expected ',' or '}' near %q", s)
		}
	}
}

// unquoteLabel decodes a double-quoted label value with the exposition-format
// escapes (\\, \", \n) and returns the decoded value plus the number of
// input bytes consumed including both quotes.
func unquoteLabel(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in %q", s)
			}
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("invalid escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value in %q", s)
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid sample value %q", s)
	}
	return v, nil
}

const promGood = `# HELP demo_ops_total Operations completed
# TYPE demo_ops_total counter
demo_ops_total{worker="w0"} 12
demo_ops_total{worker="w1"} 34
# HELP demo_lat_ns Latency
# TYPE demo_lat_ns histogram
demo_lat_ns_bucket{worker="w0",le="63"} 3
demo_lat_ns_bucket{worker="w0",le="+Inf"} 5
demo_lat_ns_sum{worker="w0"} 900
demo_lat_ns_count{worker="w0"} 5
# TYPE demo_fill gauge
demo_fill 0.75
`

func TestParseGood(t *testing.T) {
	fams, err := parseProm(strings.NewReader(promGood))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 3 {
		t.Fatalf("families = %d, want 3", len(fams))
	}
	ops := findFamily(fams, "demo_ops_total")
	if ops == nil || ops.Type != "counter" || ops.Help != "Operations completed" {
		t.Fatalf("ops family = %+v", ops)
	}
	if len(ops.Samples) != 2 || ops.Samples[1].Labels["worker"] != "w1" || ops.Samples[1].Value != 34 {
		t.Fatalf("ops samples = %+v", ops.Samples)
	}
	lat := findFamily(fams, "demo_lat_ns")
	if lat == nil || lat.Type != "histogram" || len(lat.Samples) != 4 {
		t.Fatalf("lat family = %+v", lat)
	}
	if le := lat.Samples[1].Labels["le"]; le != "+Inf" {
		t.Fatalf("le=+Inf label did not parse: %+v", lat.Samples[1])
	}
	fill := findFamily(fams, "demo_fill")
	if fill == nil || fill.Samples[0].Value != 0.75 {
		t.Fatalf("fill = %+v", fill)
	}
}

func TestParseEscapes(t *testing.T) {
	in := "# TYPE m gauge\n" + `m{l="a\"b\\c\nd"} 1` + "\n"
	fams, err := parseProm(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[0].Samples[0].Labels["l"]; got != "a\"b\\c\nd" {
		t.Fatalf("label = %q", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE":   "no_type 1\n",
		"bad metric name":       "# TYPE 1bad counter\n1bad 1\n",
		"bad type":              "# TYPE m histo\nm 1\n",
		"duplicate TYPE":        "# TYPE m gauge\n# TYPE m gauge\nm 1\n",
		"duplicate HELP":        "# HELP m a\n# HELP m b\n# TYPE m gauge\nm 1\n",
		"TYPE after samples":    "# TYPE m gauge\nm 1\n# TYPE m gauge\n",
		"unquoted label":        "# TYPE m gauge\nm{l=1} 1\n",
		"bad label name":        "# TYPE m gauge\nm{0l=\"x\"} 1\n",
		"duplicate label":       "# TYPE m gauge\nm{a=\"1\",a=\"2\"} 1\n",
		"unterminated label":    "# TYPE m gauge\nm{a=\"1} 1\n",
		"bad value":             "# TYPE m gauge\nm abc\n",
		"bare histogram sample": "# TYPE m histogram\nm 1\n",
		"interleaved families":  "# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na 2\n",
		"empty HELP":            "# HELP m\n# TYPE m gauge\nm 1\n",
	}
	for name, in := range cases {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseTimestamps(t *testing.T) {
	in := "# TYPE m gauge\nm 1 1712345678\n"
	if _, err := parseProm(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	bad := "# TYPE m gauge\nm 1 not_a_ts\n"
	if _, err := parseProm(strings.NewReader(bad)); err == nil {
		t.Fatal("bad timestamp parsed without error")
	}
}
