// Command sionrouter fronts a multifile with a cluster of serve nodes
// (internal/cluster): 256 KiB granules are consistent-hashed across N
// in-process serve instances, a read is one node call per granule it
// touches, the hottest blocks are replicated to ring successors,
// and nodes fill their caches from each other before touching the
// backend — one process, but the cluster data path (ring routing, peer
// fill, failover) that a multi-host deployment would use.
//
// Usage:
//
//	sionrouter [-addr :8080] [-nodes 3] [-cache-mb 64] [-block N]
//	           [-retries 4] [-replicate 2] [-hot-min 64] [-vnodes 64]
//	           [-pprof] [-slow-ms 500]
//	           [-backend posix|objstore[,profile]] <multifile>
//
// The read endpoints, the degraded (503 + Retry-After) contract and the
// SIGINT/SIGTERM drain are internal/httpapi's, shared with sionserve; its
// package comment is the reference. /stats is a cluster.Stats, /metrics
// carries the router's cluster_* families plus every node's serve_*
// families labeled node=<id>. The router adds:
//
//	GET  /cluster                membership and hot-set summary
//	POST /cluster/join?id=<id>   add a serve node to the ring
//	POST /cluster/leave?id=<id>  drain a node off the ring
//	POST /cluster/rebalance      replicate the current hot set now
//
// A hot-set rebalance also runs on a background ticker.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backendflag"
	"repro/internal/cluster"
	"repro/internal/fsio"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/serve"
)

// router carries the cluster plus everything needed to admit new nodes
// at runtime (join re-uses the CLI's backend and per-node serve config).
type router struct {
	c    *cluster.Cluster
	api  *httpapi.API
	fsys fsio.FileSystem
	name string
	scfg *serve.Config
}

const rebalanceEvery = 5 * time.Second

func main() {
	fl := httpapi.RegisterFlags(flag.CommandLine)
	nodes := flag.Int("nodes", 3, "serve nodes to start on the ring")
	replicate := flag.Int("replicate", 2, "ring replicas per hot block, primary included (1 disables)")
	hotMin := flag.Int64("hot-min", 64, "cache hits at which a block counts as hot")
	vnodes := flag.Int("vnodes", 64, "virtual ring points per node")
	flag.Parse()
	if flag.NArg() != 1 || *nodes < 1 {
		fmt.Fprintln(os.Stderr, "usage: sionrouter [flags] <multifile> (see -h)")
		os.Exit(2)
	}

	// One registry for the whole topology: the router's cluster_* families,
	// each node's serve_* families (labeled node=<id> at Join), and the
	// shared instrumented backend's fsio_* families (labeled backend=<kind>).
	reg := obs.NewRegistry()
	stack, err := backendflag.Build(fl.Backend, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionrouter:", err)
		os.Exit(2)
	}
	rt := &router{
		c: cluster.New(&cluster.Config{
			VNodes:       *vnodes,
			ReplicateHot: *replicate,
			HotMinHits:   *hotMin,
			Metrics:      reg,
		}),
		fsys: stack.FS,
		name: flag.Arg(0),
		scfg: fl.ServeConfig(),
	}
	for i := 1; i <= *nodes; i++ {
		if _, err := rt.c.Join(fmt.Sprintf("n%d", i), rt.fsys, rt.name, rt.scfg); err != nil {
			fmt.Fprintln(os.Stderr, "sionrouter:", err)
			os.Exit(1)
		}
	}
	rt.mount(fl)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Hot blocks drift with the workload; fold fresh LRU hit reports into
	// ring replicas on a fixed cadence (and on demand via the endpoint).
	go func() {
		t := time.NewTicker(rebalanceEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rt.c.RebalanceHot()
			}
		}
	}()

	fmt.Printf("sionrouter: serving %s (%d ranks, %d nodes, %d-byte cache blocks) on %s\n",
		rt.name, rt.c.Layout().NTasks(), *nodes, rt.c.BlockBytes(), fl.Addr)
	if err := rt.api.Run(ctx, "sionrouter", fl.Addr); err != nil {
		fmt.Fprintln(os.Stderr, "sionrouter:", err)
		os.Exit(1)
	}
}

// mount puts the shared read API on the cluster and adds the router's own
// routes to its mux (split out so tests drive the handlers through
// httptest without a listener).
func (rt *router) mount(fl *httpapi.Flags) {
	rt.api = httpapi.ForCluster(rt.c, fl)
	rt.api.Mux.HandleFunc("/cluster", rt.handleCluster)
	rt.api.Mux.HandleFunc("/cluster/", rt.handleClusterOp)
}

// handleCluster summarizes membership and the tracked hot set.
func (rt *router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	rt.api.WriteJSON(w, struct {
		Nodes      []string `json:"nodes"`
		HotTracked int      `json:"hot_tracked"`
	}{Nodes: rt.c.NodeIDs(), HotTracked: rt.c.HotTracked()})
}

// handleClusterOp routes POST /cluster/{join,leave,rebalance}.
func (rt *router) handleClusterOp(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/cluster/")
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "cluster operations are POSTs", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" && (op == "join" || op == "leave") {
		http.Error(w, op+" needs ?id=", http.StatusBadRequest)
		return
	}
	switch op {
	case "join":
		if _, err := rt.c.Join(id, rt.fsys, rt.name, rt.scfg); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	case "leave":
		if err := rt.c.Leave(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	case "rebalance":
		rt.api.WriteJSON(w, struct {
			Replicated int `json:"replicated"`
		}{Replicated: rt.c.RebalanceHot()})
		return
	default:
		http.NotFound(w, r)
		return
	}
	rt.handleCluster(w, r)
}
