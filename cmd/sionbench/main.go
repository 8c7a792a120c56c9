// Command sionbench regenerates the paper's evaluation tables and figures
// on the simulated Jugene and Jaguar machines.
//
// Usage:
//
//	sionbench [-exp fig3a,...|all] [-scale N]
//
// With -scale 1 (the default) every experiment runs at the paper's full
// configuration (up to 64K tasks and terabytes of simulated I/O); larger
// scale divisors shrink task counts and volumes proportionally for quick
// runs. Standard output is one text table per experiment, with the paper's
// numbers referenced in the notes for comparison; how long each took goes
// to standard error, so stdout depends on nothing but -exp and -scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/expt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status as values. Tables go to
// stdout and nothing else does: at -scale 16 it is byte for byte what
// internal/expt's goldens hold.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sionbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exps := fs.String("exp", "all", "comma-separated experiment ids ("+strings.Join(expt.Names(), ",")+") or 'all'")
	scale := fs.Int("scale", 1, "scale divisor for task counts and data volumes (1 = paper scale)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	var names []string
	if *exps == "all" {
		names = expt.Names()
	} else {
		names = strings.Split(*exps, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		exp := expt.ByName(name)
		if exp == nil {
			fmt.Fprintf(stderr, "sionbench: unknown experiment %q (known: %s)\n",
				name, strings.Join(expt.Names(), ", "))
			return 2
		}
		start := time.Now()
		exp(*scale).Print(stdout)
		fmt.Fprintf(stderr, "sionbench: %s regenerated in %.1fs wall time at scale %d\n", name, time.Since(start).Seconds(), *scale)
	}
	return 0
}
