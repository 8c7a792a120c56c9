package httpapi

import (
	"flag"

	"repro/internal/backendflag"
	"repro/internal/resil"
	"repro/internal/serve"
)

// Flags are sionserve's command-line flags, -nodes aside.
type Flags struct {
	Addr    string // -addr
	CacheMB int64  // -cache-mb
	Block   int64  // -block (0 = serve's default: the FS block rounded up to at least 32 KiB)
	Retries int    // -retries
	Pprof   bool   // -pprof
	SlowMs  int64  // -slow-ms
	Backend string // -backend (a backendflag spec)
}

// RegisterFlags declares the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	fl := new(Flags)
	fs.StringVar(&fl.Addr, "addr", ":8080", "listen address")
	fs.Int64Var(&fl.CacheMB, "cache-mb", 64, "block cache budget of one serve node in MiB")
	fs.Int64Var(&fl.Block, "block", 0, "cache block size in bytes (0 = the smallest multiple of the multifile's FS block that is at least 32 KiB)")
	fs.IntVar(&fl.Retries, "retries", resil.DefaultMaxAttempts,
		"max attempts per backend read under transient faults (1 disables retries)")
	fs.BoolVar(&fl.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.Int64Var(&fl.SlowMs, "slow-ms", 500,
		"log requests slower than this many milliseconds with their breadcrumb trail (0 disables)")
	fs.StringVar(&fl.Backend, "backend", backendflag.Default, backendflag.Usage)
	return fl
}

// ServeConfig is the serve.Config of one node under these flags. It names
// no metrics registry: cluster.Join sets the cluster's, labeling each
// node.
func (fl *Flags) ServeConfig() *serve.Config {
	return &serve.Config{
		CacheBytes: fl.CacheMB << 20,
		BlockBytes: fl.Block,
		Retry:      &resil.Budget{MaxAttempts: fl.Retries},
	}
}
