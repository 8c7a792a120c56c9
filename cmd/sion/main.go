// Command sion is the set of offline utilities over a SION multifile: the
// paper's §3.3 dump, split and defragment, a structural verify, and the §6
// repair.
//
// Usage:
//
//	sion dump   [-backend B] [-mapping] <multifile>
//	sion split  [-backend B] [-pattern task-%d.bin] [-ranks 0,3,7] <multifile>
//	sion defrag [-backend B] <src-multifile> <dst-multifile>
//	sion verify [-backend B] <multifile>
//	sion repair [-backend B] <multifile>
//
// dump prints the global layout, per-segment geometry and per-task chunk
// table. With -mapping it prints only the rank→(physical file, local rank)
// table from file 0's header, so it also works when other segments are
// missing or damaged.
//
// split recreates the logical task-local files (all, or those -ranks
// names) as physical files named by -pattern.
//
// defrag rewrites the multifile so that each task's data occupies one
// chunk in one block. The destination keeps the source's file count and
// task placement; with an objstore backend it takes the backend's
// part-aligned geometry.
//
// verify checks that the metablocks parse, the task placement is
// consistent, per-block byte counts fit their chunks, and chunk headers
// and watermarks, where present, agree with metablock 2.
//
// repair rebuilds metablock 2 and the trailer of a multifile whose writer
// died before its close, from the chunk headers or the watermarks it was
// written with, and then verifies it.
//
// -backend is posix (the default) or objstore[,profile]; it applies to
// every file a verb reads or writes. The exit status is 0 on success, 1
// when the operation fails and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/backendflag"
	sion "repro/internal/core"
)

const usage = `usage: sion dump   [-backend B] [-mapping] <multifile>
       sion split  [-backend B] [-pattern P] [-ranks R,...] <multifile>
       sion defrag [-backend B] <src> <dst>
       sion verify [-backend B] <multifile>
       sion repair [-backend B] <multifile>`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status as values.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	prog := "sion " + args[0]
	fl := flag.NewFlagSet(prog, flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.Usage = func() {
		fmt.Fprintln(stderr, usage)
		fl.PrintDefaults()
	}
	fsys, _ := backendflag.Build(backendflag.Default, nil) // the default spec always builds
	fl.Func("backend", backendflag.Usage+" (default "+backendflag.Default+")", func(spec string) (err error) {
		fsys, err = backendflag.Build(spec, nil)
		return err
	})

	// op runs the verb on the operands Parse leaves; it takes `operands`.
	var op func() error
	operands := 1
	switch args[0] {
	case "dump":
		mapping := fl.Bool("mapping", false, "print only the rank→file mapping table from file 0's header")
		op = func() error {
			if *mapping {
				return sion.DumpMapping(fsys, fl.Arg(0), stdout)
			}
			return sion.Dump(fsys, fl.Arg(0), stdout)
		}
	case "split":
		pattern := fl.String("pattern", "task-%d.bin", "output file name pattern (%d = task rank)")
		var ranks []int
		fl.Func("ranks", "comma-separated ranks to extract (default: all)", func(list string) error {
			for _, s := range strings.Split(list, ",") {
				r, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return err
				}
				ranks = append(ranks, r)
			}
			return nil
		})
		op = func() error { return sion.Split(fsys, fl.Arg(0), fsys, *pattern, ranks) }
	case "defrag":
		operands = 2
		op = func() error { return sion.Defrag(fsys, fl.Arg(0), fsys, fl.Arg(1)) }
	case "verify", "repair":
		op = func() error {
			if args[0] == "repair" {
				n, err := sion.Repair(fsys, fl.Arg(0))
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "%s: recovered metadata for %d chunks\n", prog, n)
			}
			if err := sion.Verify(fsys, fl.Arg(0)); err != nil {
				return err
			}
			fmt.Fprintln(stdout, prog+": multifile verifies clean")
			return nil
		}
	default:
		fmt.Fprintf(stderr, "sion: unknown verb %q\n%s\n", args[0], usage)
		return 2
	}

	if err := fl.Parse(args[1:]); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if fl.NArg() != operands {
		fl.Usage()
		return 2
	}
	if err := op(); err != nil {
		fmt.Fprintln(stderr, prog+":", err)
		return 1
	}
	return 0
}
