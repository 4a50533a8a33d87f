// Package promtext writes the Prometheus text exposition format (version
// 0.0.4): counter, gauge and histogram families, with label values and
// help text escaped per the format's rules. It is the one metrics writer
// behind every /metrics page in the repository.
package promtext

import (
	"io"
	"strconv"
	"strings"
)

// ContentType is the Content-Type of a text exposition page.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders a page line by line onto an underlying writer. A family
// opens with Family, and its samples follow before the next family opens.
// Write errors are dropped: a scrape whose client went away has nobody
// left to report to.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer rendering onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Family writes the HELP and TYPE lines that open a metric family; typ is
// "counter", "gauge" or "histogram".
func (p *Writer) Family(name, typ, help string) {
	b := append(p.buf[:0], "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, helpEscaper.Replace(help)...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	p.flush(append(b, '\n'))
}

// Int writes one sample with an integer value. labels alternate label
// names and values.
func (p *Writer) Int(name string, v int64, labels ...string) {
	b := strconv.AppendInt(p.sampleStart(name, labels), v, 10)
	p.flush(append(b, '\n'))
}

// Float writes one sample with a float value.
func (p *Writer) Float(name string, v float64, labels ...string) {
	b := appendFloat(p.sampleStart(name, labels), v)
	p.flush(append(b, '\n'))
}

// Counter writes a family holding one unlabelled integer counter.
func (p *Writer) Counter(name, help string, v int64) {
	p.Family(name, "counter", help)
	p.Int(name, v)
}

// Gauge writes a family holding one unlabelled integer gauge.
func (p *Writer) Gauge(name, help string, v int64) {
	p.Family(name, "gauge", help)
	p.Int(name, v)
}

// FloatGauge writes a family holding one unlabelled float gauge.
func (p *Writer) FloatGauge(name, help string, v float64) {
	p.Family(name, "gauge", help)
	p.Float(name, v)
}

// Histogram writes one labelled series of a histogram family: a
// cumulative name_bucket sample per upper bound, the closing le="+Inf"
// bucket holding count, then name_sum and name_count. counts[i] is the
// number of observations in (bounds[i-1], bounds[i]].
func (p *Writer) Histogram(name string, bounds []float64, counts []int64, sum float64, count int64, labels ...string) {
	bucket := name + "_bucket"
	le := append(labels[:len(labels):len(labels)], "le", "")
	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		le[len(le)-1] = string(appendFloat(nil, ub))
		p.Int(bucket, cum, le...)
	}
	le[len(le)-1] = "+Inf"
	p.Int(bucket, count, le...)
	p.Float(name+"_sum", sum, labels...)
	p.Int(name+"_count", count, labels...)
}

// appendFloat renders a sample value or bucket bound: the shortest
// representation that parses back to f.
func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// sampleStart renders `name{l1="v1",...} ` into the scratch buffer.
func (p *Writer) sampleStart(name string, labels []string) []byte {
	b := append(p.buf[:0], name...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(b, sep)
		b = append(b, labels[i]...)
		b = append(b, `="`...)
		b = append(b, labelEscaper.Replace(labels[i+1])...)
		b = append(b, '"')
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// flush writes one rendered line and keeps its storage for the next.
func (p *Writer) flush(b []byte) {
	p.w.Write(b)
	p.buf = b
}
