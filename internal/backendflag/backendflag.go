// Package backendflag is the shared -backend flag of the command-line
// tools: every cmd that binds a file system (sionserve, siondump,
// siondefrag, sionsplit, sionverify, sionrepair) selects its storage
// backend through one spec syntax and one stack builder, instead of
// hard-coding fsio.NewOS per command.
//
// Spec syntax: "posix" (the OS file system) or "objstore[,profile]"
// (the simulated object-store request model over the OS file system;
// profiles: "s3" — the stock 8 MiB-part profile — and "smallpart").
// The objstore backend keeps real bytes on the local file system while
// modeling the gateway's request ledger and capability descriptor, so
// the tools exercise the backend-aware geometry paths end to end.
package backendflag

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/simfs"
)

// Usage is the shared help text of the -backend flag.
const Usage = "storage backend: posix, or objstore[,profile] (profiles: s3, smallpart)"

// Default is the spec Build treats as "posix".
const Default = "posix"

// Flag registers the shared -backend flag on the default flag set.
func Flag() *string {
	return flag.String("backend", Default, Usage)
}

// Stack is one built backend stack.
type Stack struct {
	// FS is the file system to mount (instrumented when Build got a
	// registry).
	FS fsio.FileSystem
	// Label is the backend's metrics label ("os", "objstore"), as
	// reported by its capability descriptor.
	Label string
	// Obj is the object store's request ledger; nil for posix.
	Obj *simfs.ObjStore
}

// Build turns a -backend spec into a backend stack. A non-nil registry
// wraps the stack with a backend-labeled fsio meter, so every fsio_*
// family the command exposes carries the backend label.
func Build(spec string, reg *obs.Registry) (*Stack, error) {
	kind, profile := spec, ""
	if i := strings.IndexByte(spec, ','); i >= 0 {
		kind, profile = spec[:i], spec[i+1:]
	}
	var st Stack
	switch kind {
	case "", "posix":
		if profile != "" {
			return nil, fmt.Errorf("backendflag: posix takes no profile (got %q)", profile)
		}
		st = Stack{FS: fsio.NewOS(""), Label: "os"}
	case "objstore":
		prof, ok := simfs.ObjProfileByName(profile)
		if !ok {
			return nil, fmt.Errorf("backendflag: unknown objstore profile %q (use s3 or smallpart)", profile)
		}
		obj := simfs.NewObjStore(prof)
		st = Stack{FS: obj.Wrap(fsio.NewOS(""), nil), Label: "objstore", Obj: obj}
	default:
		return nil, fmt.Errorf("backendflag: unknown backend %q (use posix or objstore[,profile])", kind)
	}
	if lbl := fsio.CapabilitiesOf(st.FS).Backend; lbl != "" {
		st.Label = lbl
	}
	if reg != nil {
		st.FS = fsio.Instrument(st.FS, fsio.NewMeter(reg, st.Label))
	}
	return &st, nil
}
