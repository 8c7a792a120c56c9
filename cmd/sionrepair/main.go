// Command sionrepair reconstructs the closing metadata (metablock 2 and
// trailer) of a SION multifile from the per-chunk headers, recovering
// multifiles whose writer died before the collective close — the paper's
// §6 robustness plan. The multifile must have been written with chunk
// headers enabled.
//
// Usage: sionrepair [-backend posix|objstore[,profile]] <multifile>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/backendflag"
	sion "repro/internal/core"
)

func main() {
	backend := backendflag.Flag()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sionrepair [-backend B] <multifile>")
		os.Exit(2)
	}
	stack, err := backendflag.Build(*backend, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionrepair:", err)
		os.Exit(2)
	}
	fs := stack.FS
	n, err := sion.Repair(fs, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionrepair:", err)
		os.Exit(1)
	}
	fmt.Printf("sionrepair: recovered metadata for %d chunks\n", n)
	if err := sion.Verify(fs, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "sionrepair: post-repair verify:", err)
		os.Exit(1)
	}
	fmt.Println("sionrepair: multifile verifies clean")
}
