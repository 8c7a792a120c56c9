// Command benchjson converts `go test -bench` output into a stable JSON
// document, establishing the repository's perf-trajectory baseline: CI
// runs the top-level benchmark suite at -benchtime=1x and records every
// reported metric (including the simulated-quantity custom metrics, which
// are deterministic) so successive PRs can be compared against the
// committed BENCH_PR<N>.json snapshots.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . | benchjson -o BENCH_PR10.json
//	go test -run '^$' -bench . -benchtime 1x . | benchjson -baseline BENCH_PR10.json -o BENCH_CI.json
//
// With -baseline, benchjson compares the current run against the
// committed baseline and exits non-zero when any deterministic metric
// regresses by more than -tolerance (default 25%): time-like metrics must
// not grow past baseline×(1+tol), rate/ratio metrics where higher is
// better must not shrink below baseline×(1−tol). Metrics whose unit ends
// in "giveups" are zero-tolerance when their baseline is zero: the
// resilience counters promise full absorption of injected faults, so any
// nonzero value is a retry storm escaping its budget, not noise.
// Machine-dependent metrics (ns/op, B/op, MB/s) are recorded but never
// gated. allocs/op (emitted when the bench run passes -benchmem) IS
// gated lower-better: allocation counts depend on the code, not on the
// machine's speed, so a >25% growth is a real allocation regression. A
// benchmark present in the baseline but missing from the run also fails
// (silent coverage loss); new benchmarks are reported and pass.
//
// Lines that are not benchmark results are ignored, so the raw `go test`
// stream can be piped in directly.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the committed baseline document.
type Doc struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON to gate against")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative regression before failing")
	flag.Parse()

	doc := Doc{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if b, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *baseline == "" {
		return
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing %s: %v\n", *baseline, err)
		os.Exit(1)
	}
	regressions := compare(&base, &doc, *tolerance)
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) beyond %.0f%% vs %s\n",
			len(regressions), *tolerance*100, *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: no regressions beyond %.0f%% vs %s\n", *tolerance*100, *baseline)
}

// skipUnits are machine-dependent metrics never gated on: wall-clock
// noise varies across runners, while the sim-* metrics, the derived
// ratios, and allocation counts (allocs/op — a property of the code, not
// the runner) are deterministic. B/op stays ungated: byte totals shift
// with allocator size classes across Go versions, while the allocation
// *count* is the stable signal.
var skipUnits = map[string]bool{
	"ns/op": true,
	"B/op":  true,
	"MB/s":  true,
}

// higherBetter classifies a metric's direction: throughputs, speedups,
// and reduction factors improve upward; times, request counts, and
// degradation ratios improve downward.
func higherBetter(unit string) bool {
	switch {
	case strings.HasSuffix(unit, "MB/s"),
		strings.HasSuffix(unit, "speedup"),
		strings.HasSuffix(unit, "reduction"):
		return true
	}
	return false
}

// compare returns one message per metric of base that cur misses or
// regresses on beyond tol.
func compare(base, cur *Doc, tol float64) []string {
	current := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		current[b.Name] = b
	}
	var out []string
	for _, bb := range base.Benchmarks {
		cb, ok := current[bb.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline, missing from this run", bb.Name))
			continue
		}
		for unit, bv := range bb.Metrics {
			if skipUnits[unit] {
				continue
			}
			cv, ok := cb.Metrics[unit]
			if !ok {
				out = append(out, fmt.Sprintf("%s: metric %q missing from this run", bb.Name, unit))
				continue
			}
			if bv == 0 {
				// A baseline of zero leaves no tolerance to scale. Most
				// zero metrics are simply unused and stay ungated, but
				// give-up counters are zero by design: the resilience
				// layers promise full absorption, so any movement is a
				// retry storm escaping its budget and fails the gate.
				if strings.HasSuffix(unit, "giveups") && cv != 0 {
					out = append(out, fmt.Sprintf("%s: %s moved off its zero baseline to %.4g",
						bb.Name, unit, cv))
				}
				continue
			}
			if higherBetter(unit) {
				if cv < bv*(1-tol) {
					out = append(out, fmt.Sprintf("%s: %s fell %.4g -> %.4g (-%.0f%%)",
						bb.Name, unit, bv, cv, 100*(1-cv/bv)))
				}
			} else if cv > bv*(1+tol) {
				out = append(out, fmt.Sprintf("%s: %s grew %.4g -> %.4g (+%.0f%%)",
					bb.Name, unit, bv, cv, 100*(cv/bv-1)))
			}
		}
	}
	return out
}

// parseLine parses one `BenchmarkX-8   1   123 ns/op   4.5 unit` line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix so names are machine-independent.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, len(b.Metrics) > 0
}
