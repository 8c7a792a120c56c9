// Command siondump prints the metadata of a SION multifile (the paper's
// §3.3 "dump" utility): global layout, per-segment geometry, and the
// per-task chunk table.
//
// Usage:
//
//	siondump [-backend posix|objstore[,profile]] [-mapping] <multifile>
//
// With -mapping it prints only the global rank→(physical file, local
// rank) mapping table decoded from file 0's header — this needs no other
// segment to be present or intact, so it also works on partially damaged
// multifiles where the full dump (which parses every segment's metablock
// 2) fails.
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
	mapping := flag.Bool("mapping", false, "print only the rank→file mapping table from file 0's header")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: siondump [-backend B] [-mapping] <multifile>")
		os.Exit(2)
	}
	stack, err := backendflag.Build(*backend, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "siondump:", err)
		os.Exit(2)
	}
	dump := sion.Dump
	if *mapping {
		dump = sion.DumpMapping
	}
	if err := dump(stack.FS, flag.Arg(0), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "siondump:", err)
		os.Exit(1)
	}
}
