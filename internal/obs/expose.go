package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders {k="v",...}; extra labels are appended after the
// child's own (used for the histogram "le" label).
func labelString(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, l := range append(append([]Label(nil), labels...), extra...) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value. Integral values print without an
// exponent or trailing zeros so counter output stays byte-stable.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm writes the registry contents in Prometheus text exposition
// format (version 0.0.4): families sorted by name, children in creation
// order, histograms as cumulative le-bucketed series with _sum and
// _count. A Nop registry writes nothing.
func (r *Registry) WriteProm(w io.Writer) error {
	if r.disabled {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, f := range r.snapshotFamilies() {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]*child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue // emptied by Unregister
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range children {
			switch {
			case c.fn.Load() != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(c.labels), formatFloat((*c.fn.Load())()))
			case c.ctr != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(c.labels), c.ctr.Value())
			case c.hist != nil:
				writeHist(bw, f.name, c.labels, c.hist.Snapshot())
			}
		}
	}
	return bw.Flush()
}

// writeHist renders one histogram child: cumulative buckets (le is the
// bound in seconds), then _sum (seconds) and _count. Count is re-derived
// from the buckets so the +Inf bucket always equals _count even while
// observers are in flight.
func writeHist(w io.Writer, name string, labels []Label, s HistSnapshot) {
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(float64(bucketBound(i))/1e9, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, Label{"le", le}), cum)
	}
	cum += s.Buckets[histBuckets]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(labels, Label{"le", "+Inf"}), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labels), formatFloat(float64(s.SumNs)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labels), cum)
}

// Handler returns an http.Handler serving the registry as text
// exposition — the body of GET /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}

// CheckExposition validates Prometheus text output structurally: every
// sample belongs to a declared family, family names are unique and
// declared before use, histogram buckets have strictly increasing le
// bounds with non-decreasing cumulative counts, and the +Inf bucket
// matches _count. The CI /metrics smoke test and the cmd exposition
// tests share this.
func CheckExposition(data []byte) error {
	type famInfo struct{ typ string }
	families := map[string]famInfo{}
	// per histogram child (name+labels): last le bound, last cumulative
	// count, +Inf total, and declared _count
	type histState struct {
		lastLe   float64
		lastCum  int64
		started  bool
		infTotal int64
		hasInf   bool
	}
	hists := map[string]*histState{}
	counts := map[string]int64{}
	hasCount := map[string]bool{}

	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line[len("# TYPE "):])
			if len(fields) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line", lineNo)
			}
			name, typ := fields[0], fields[1]
			if _, dup := families[name]; dup {
				return fmt.Errorf("line %d: duplicate family %q", lineNo, name)
			}
			families[name] = famInfo{typ: typ}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}

		// sample line: name[{labels}] value
		nameEnd := strings.IndexAny(line, "{ ")
		if nameEnd < 0 {
			return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name := line[:nameEnd]
		rest := line[nameEnd:]
		labels := ""
		if rest[0] == '{' {
			end := strings.LastIndexByte(rest, '}')
			if end < 0 {
				return fmt.Errorf("line %d: unterminated labels", lineNo)
			}
			labels = rest[1:end]
			rest = rest[end+1:]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}

		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				if f, ok := families[strings.TrimSuffix(name, s)]; ok && f.typ == "histogram" {
					base, suffix = strings.TrimSuffix(name, s), s
				}
				break
			}
		}
		fam, ok := families[base]
		if !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
		}
		if fam.typ != "histogram" {
			continue
		}
		if suffix == "" {
			return fmt.Errorf("line %d: bare sample %q for histogram family %q", lineNo, name, base)
		}

		// strip le from labels to key the child
		childLabels := labels
		le := ""
		if suffix == "_bucket" {
			parts := splitLabels(labels)
			kept := parts[:0]
			for _, p := range parts {
				if strings.HasPrefix(p, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
				} else {
					kept = append(kept, p)
				}
			}
			if le == "" {
				return fmt.Errorf("line %d: bucket sample missing le label", lineNo)
			}
			childLabels = strings.Join(kept, ",")
		}
		key := base + "\xff" + childLabels

		switch suffix {
		case "_bucket":
			h := hists[key]
			if h == nil {
				h = &histState{}
				hists[key] = h
			}
			cumCount := int64(val)
			if le == "+Inf" {
				h.infTotal = cumCount
				h.hasInf = true
				if h.started && cumCount < h.lastCum {
					return fmt.Errorf("%s: +Inf bucket %d below previous cumulative %d", key, cumCount, h.lastCum)
				}
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("%s: bad le %q: %v", base, le, err)
			}
			if h.started {
				if bound <= h.lastLe {
					return fmt.Errorf("%s: le %g not greater than previous %g", base, bound, h.lastLe)
				}
				if cumCount < h.lastCum {
					return fmt.Errorf("%s: cumulative count decreased (%d after %d)", base, cumCount, h.lastCum)
				}
			}
			h.started, h.lastLe, h.lastCum = true, bound, cumCount
		case "_count":
			counts[key] = int64(val)
			hasCount[key] = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for key, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("%s: histogram has no +Inf bucket", key)
		}
		if !hasCount[key] {
			return fmt.Errorf("%s: histogram has no _count", key)
		}
		if counts[key] != h.infTotal {
			return fmt.Errorf("%s: _count %d != +Inf bucket %d", key, counts[key], h.infTotal)
		}
	}
	return nil
}

// splitLabels splits a label body on commas that sit outside quoted
// values.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	inQuotes := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			inQuotes = !inQuotes
		case ',':
			if !inQuotes {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
