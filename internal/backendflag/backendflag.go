// Package backendflag is the shared -backend flag of the command-line
// tools: sion and sionserve select their storage backend through one spec
// syntax and one builder, instead of hard-coding fsio.NewOS per command.
//
// Spec syntax: "posix" (the OS file system) or "objstore[,profile]"
// (the simulated object-store request model over the OS file system;
// profiles: "s3" — the stock 8 MiB-part profile — and "smallpart").
// The objstore backend keeps real bytes on the local file system while
// modeling the gateway's request ledger and capability descriptor, so
// the tools exercise the backend-aware geometry paths end to end.
package backendflag

import (
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

// Build turns a -backend spec into the file system to mount. A non-nil
// registry wraps it with an fsio meter labeled with the backend ("os" or
// "objstore"), so every fsio_* family the command exposes carries the
// backend label.
func Build(spec string, reg *obs.Registry) (fsio.FileSystem, error) {
	kind, profile, _ := strings.Cut(spec, ",")
	var fsys fsio.FileSystem
	label := kind
	switch kind {
	case "", "posix":
		if profile != "" {
			return nil, fmt.Errorf("backendflag: posix takes no profile (got %q)", profile)
		}
		fsys, label = fsio.NewOS(""), "os"
	case "objstore":
		prof, ok := simfs.ObjProfileByName(profile)
		if !ok {
			return nil, fmt.Errorf("backendflag: unknown objstore profile %q (use s3 or smallpart)", profile)
		}
		fsys = simfs.NewObjStore(prof).Wrap(fsio.NewOS(""), nil)
	default:
		return nil, fmt.Errorf("backendflag: unknown backend %q (use posix or objstore[,profile])", kind)
	}
	if reg != nil {
		fsys = fsio.Instrument(fsys, fsio.NewMeter(reg, label))
	}
	return fsys, nil
}
