package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readResults loads a file written by -out.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series gathers one metric's values over the runs of one workload.
func series(rs []result, workload, metric string, trace bool) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // a side's own quartile spread is wider than the bound
)

// judge applies the benchmark's rule to two sets of runs of one metric:
// worse is how much B's median is worse than A's, spread the wider of the
// two sides' interquartile ranges, both as shares of a median.
func judge(d metricDef, a, b []float64) (worse, spread float64, verdict string) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	worse = (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	spread = math.Max((qa3-qa1)/ma, (qb3-qb1)/mb)
	switch {
	case worse > d.Bound:
		verdict = verdictRegressed
	case spread > d.Bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictOK
	}
	return worse, spread, verdict
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles and the relative change; end-to-end metrics also get their
// bound and a verdict. It returns 1 if anything regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	code := 0
	for _, sp := range workloads {
		fmt.Fprintf(w, "\n== %s: A = %s, B = %s ==\n", sp.Name, pathA, pathB)
		fmt.Fprintf(w, "   %-36s %-6s %12s %12s %12s %4s %12s %12s %12s %4s %8s %7s %7s  %s\n", "metric", "unit",
			"A q1", "A median", "A q3", "n", "B q1", "B median", "B q3", "n", "B worse", "spread", "bound", "verdict")
		for _, kind := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range kind {
				va, vb := series(a, sp.Name, d.Name, d.Layer != ""), series(b, sp.Name, d.Name, d.Layer != "")
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				qa1, ma, qa3 := quartiles(va)
				qb1, mb, qb3 := quartiles(vb)
				worse, spread, verdict := judge(d, va, vb)
				bound := fmt.Sprintf("%7.3f", d.Bound)
				if d.Layer != "" {
					bound, verdict = "      -", "-"
				}
				if verdict == verdictRegressed {
					code = 1
				}
				fmt.Fprintf(w, "   %-36s %-6s %12.4f %12.4f %12.4f %4d %12.4f %12.4f %12.4f %4d %+8.3f %7.3f %s  %s\n", d.Name, d.Unit,
					qa1, ma, qa3, len(va), qb1, mb, qb3, len(vb), worse, spread, bound, verdict)
			}
		}
	}
	return code
}
