// Command sionserve exposes a multifile over HTTP through the read-serving
// subsystem (internal/serve): one process fronts the multifile for any
// number of remote clients, with a sharded block cache and coalesced
// backend reads between them and the file system.
//
// Usage:
//
//	sionserve [-addr :8080] [-cache-mb 64] [-block N] [-retries 4]
//	          [-pprof] [-slow-ms 500] [-backend posix|objstore[,profile]] <multifile>
//
// The endpoints, the degraded (503 + Retry-After) contract and the
// SIGINT/SIGTERM drain are internal/httpapi's, shared with sionrouter;
// its package comment is the reference. /stats is a serve.Stats, /metrics
// carries the serve_* and fsio_* families, /healthz lists the physical
// files' circuit breakers.
//
// The multifile must be complete (written and closed); serving a file
// still being written is out of scope for the cache's consistency model.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/backendflag"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	fl := httpapi.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sionserve [-addr :8080] [-cache-mb 64] [-block N] [-retries 4] [-backend posix|objstore[,profile]] <multifile>")
		os.Exit(2)
	}
	// One registry carries the whole process: the serve layer's families
	// plus the instrumented backend's fsio_* families (labeled with the
	// backend name), so /metrics shows cache behavior next to the raw I/O
	// it turns into.
	reg := obs.NewRegistry()
	stack, err := backendflag.Build(fl.Backend, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(2)
	}
	cfg := fl.ServeConfig()
	cfg.Metrics = reg
	srv, err := serve.New(stack.FS, flag.Arg(0), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("sionserve: serving %s (%d ranks, %d physical files, %d-byte cache blocks) on %s\n",
		flag.Arg(0), srv.Layout().NTasks(), srv.Layout().NumFiles(), srv.BlockBytes(), fl.Addr)
	if err := httpapi.ForServer(srv, fl).Run(ctx, "sionserve", fl.Addr); err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(1)
	}
}
