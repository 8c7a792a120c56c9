package httpapi

import (
	"flag"
	"io"
	"testing"

	"repro/internal/resil"
)

// TestFlags pins the shared command-line surface — names and defaults are
// a contract with scripts and with bench/, which starts sionserve with
// -addr, -slow-ms and -cache-mb — and its translation into a serve.Config.
func TestFlags(t *testing.T) {
	parse := func(args ...string) *Flags {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fl := RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parsing %q: %v", args, err)
		}
		return fl
	}

	if got, want := *parse(), (Flags{Addr: ":8080", CacheMB: 64, Retries: resil.DefaultMaxAttempts,
		SlowMs: 500, Backend: "posix"}); got != want {
		t.Errorf("defaults = %+v, want %+v", got, want)
	}
	cfg := parse().ServeConfig()
	if cfg.CacheBytes != 64<<20 || cfg.BlockBytes != 0 || cfg.Retry.MaxAttempts != resil.DefaultMaxAttempts || cfg.Metrics != nil {
		t.Errorf("default ServeConfig = %+v (retry %+v)", cfg, cfg.Retry)
	}

	fl := parse("-addr", "127.0.0.1:9", "-cache-mb", "3", "-block", "8192", "-retries", "1",
		"-pprof", "-slow-ms", "0", "-backend", "objstore,smallpart")
	if want := (Flags{Addr: "127.0.0.1:9", CacheMB: 3, Block: 8192, Retries: 1, Pprof: true,
		Backend: "objstore,smallpart"}); *fl != want {
		t.Errorf("parsed = %+v, want %+v", *fl, want)
	}
	cfg = fl.ServeConfig()
	if cfg.CacheBytes != 3<<20 || cfg.BlockBytes != 8192 || cfg.Retry.MaxAttempts != 1 {
		t.Errorf("ServeConfig = %+v (retry %+v)", cfg, cfg.Retry)
	}
}
