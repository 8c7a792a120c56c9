// Command bench is the repository's benchmark: it pushes real bytes
// through every layer (fsio, mpi, core, serve, cluster, the sionserve
// binary over loopback HTTP) on a real directory and prints every metric
// of BENCHMARK.json by name and unit. See README.md.
//
// Usage:
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                  [-out runs.jsonl] [-spans spans.json] [-dir scratch]
//	bash bench/run.sh -compare a.jsonl b.jsonl
//	bash bench/run.sh -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run one workload (default: all of them)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same payload, records and requests")
	secs := flag.Float64("seconds", runSeconds, "measuring time of one run of one workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	out := flag.String("out", "", "append each run's result to this file, one JSON object per line (input of -compare)")
	spansFile := flag.String("spans", "", "with -trace 1: write the recorded spans of every workload run to this file as one JSON array")
	dir := flag.String("dir", "", "create the scratch directory under this one (default: the system temp directory)")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on any regression")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}

	specs := workloads
	if *workload != "" {
		sp := workloadByName(*workload)
		if sp == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []spec{*sp}
	}

	// Every exit path, signals included, stops sionserve and removes the
	// scratch directory.
	jan := &janitor{}
	defer jan.sweep()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		jan.sweep()
		os.Exit(130)
	}()

	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fail(err)
		}
	}
	scratch, err := os.MkdirTemp(*dir, "sionbench-")
	if err != nil {
		return fail(err)
	}
	jan.dirs = append(jan.dirs, scratch)
	e := &env{dir: scratch, clients: min(runtime.NumCPU(), 4), jan: jan, worlds: 4, mpiRounds: 1000, tracedReqs: 4000}
	if e.sionserve, e.buildTime, err = buildSionserve(scratch); err != nil {
		return fail(err)
	}

	code := 0
	var spans []span // of every workload run so far; each span names its workload
	for i := range specs {
		res, sp, err := runWorkload(e, &specs[i], *seed, *secs, *trace != 0)
		spans = append(spans, sp...)
		if res != nil {
			res.report(os.Stdout)
		}
		if err != nil {
			code = fail(fmt.Errorf("%s: %w", specs[i].Name, err))
			break
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				code = fail(err)
				break
			}
		}
		line, err := res.lastLine()
		if err != nil {
			code = fail(err)
			break
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	if *spansFile != "" && spans != nil {
		if err := writeSpans(*spansFile, spans); err != nil {
			return fail(err)
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}

func appendResult(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
