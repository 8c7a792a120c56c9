// Command sionserve exposes a multifile over HTTP through the read-serving
// tier: a cluster (internal/cluster) of -nodes in-process serve nodes
// (internal/serve), each with a sharded block cache and coalesced backend
// reads between the clients and the file system. With one node, the
// default, every request window goes to that node whole. With more,
// 256 KiB granules are consistent-hashed across the nodes, a read is one
// node call per granule it touches, and nodes fill their caches from each
// other before touching the backend — one process, but the cluster data
// path (ring routing, peer fill, failover) that a multi-host deployment
// would use.
//
// Usage:
//
//	sionserve [-addr :8080] [-nodes 1] [-cache-mb 64] [-block N] [-retries 4]
//	          [-pprof] [-slow-ms 500] [-backend posix|objstore[,profile]] <multifile>
//
// The read endpoints, /stats, /metrics, /healthz, the degraded (503 +
// Retry-After) contract and the SIGINT/SIGTERM drain are internal/httpapi's;
// its package comment is the reference. sionserve adds:
//
//	GET  /cluster                membership
//	POST /cluster/join?id=<id>   add a serve node to the ring
//	POST /cluster/leave?id=<id>  drain a node off the ring
//
// The multifile must be complete (written and closed). A serve node reads
// a live one, but the cluster does not yet poll it: Join refuses it.
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

func main() {
	fl := httpapi.RegisterFlags(flag.CommandLine)
	nodes := flag.Int("nodes", 1, "serve nodes to start on the ring")
	flag.Parse()
	if flag.NArg() != 1 || *nodes < 1 {
		fmt.Fprintln(os.Stderr, "usage: sionserve [flags] <multifile> (see -h)")
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	fsys, err := backendflag.Build(fl.Backend, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(2)
	}
	rt, err := newRouter(fl, fsys, reg, flag.Arg(0), *nodes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Printf("sionserve: serving %s (%d ranks, %d physical files, %d nodes, %d-byte cache blocks) on %s\n",
		rt.name, rt.c.Layout().NTasks(), rt.c.Layout().NumFiles(), *nodes, rt.c.BlockBytes(), fl.Addr)
	if err := rt.api.Run(ctx, "sionserve", fl.Addr); err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(1)
	}
}

// newRouter builds the process from parsed flags over the -backend stack
// fsys: a cluster of `nodes` serve nodes over the multifile `name`, and the
// HTTP API with the /cluster routes on its mux. reg, the registry the stack
// was built in, carries the whole topology: the backend's fsio_* families
// (labeled backend=<kind>), the router's cluster_* families and each
// node's serve_* families (labeled node=<id> at Join), so /metrics shows
// cache behavior next to the raw I/O it turns into. Split out of main so
// tests drive the handlers through httptest without a listener.
func newRouter(fl *httpapi.Flags, fsys fsio.FileSystem, reg *obs.Registry, name string, nodes int) (*router, error) {
	rt := &router{
		c:    cluster.New(reg),
		fsys: fsys,
		name: name,
		scfg: fl.ServeConfig(),
	}
	for i := 1; i <= nodes; i++ {
		if _, err := rt.c.Join(fmt.Sprintf("n%d", i), rt.fsys, rt.name, rt.scfg); err != nil {
			rt.c.Close()
			return nil, err
		}
	}
	rt.api = httpapi.New(rt.c, fl)
	rt.api.Mux.HandleFunc("/cluster", httpapi.ReadOnly(rt.handleCluster))
	rt.api.Mux.HandleFunc("/cluster/", rt.handleClusterOp)
	return rt, nil
}

// handleCluster reports the membership.
func (rt *router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	rt.api.WriteJSON(w, struct {
		Nodes []string `json:"nodes"`
	}{Nodes: rt.c.NodeIDs()})
}

// handleClusterOp routes POST /cluster/{join,leave}?id=<id>.
func (rt *router) handleClusterOp(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/cluster/")
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "cluster operations are POSTs", http.StatusMethodNotAllowed)
		return
	}
	if op != "join" && op != "leave" {
		http.NotFound(w, r)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
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
	}
	rt.handleCluster(w, r)
}
