package fsio

// Capabilities holds the four numbers a backend reports because a layer
// above decides something with them. The paper's central claim (the
// file mapping must match the I/O pathways of the target file system,
// §3.1) extends to request geometry: an object store parallelizes
// across objects, seals writes in parts and serves ranged GETs up to a
// ceiling, and core and serve tune from these fields instead of
// hard-coding POSIX assumptions.
//
// Every consumer treats a field ≤ 0 as "no constraint", so the zero
// value is the POSIX descriptor: a backend that reports nothing (fsio.OS
// among them) gets exactly the pre-capability geometry.
type Capabilities struct {
	// PreferredRequestBytes is the request size the backend performs
	// best at: core's direct-read threshold, serve's default span gap.
	PreferredRequestBytes int64
	// MaxReadBytes is the largest single ranged read the backend
	// serves; larger logical reads are split into several requests.
	MaxReadBytes int64
	// PartSizeFloor declares multipart PUT semantics with this minimum
	// part size: sub-part rewrites pay a staged copy, so core turns
	// write-behind staging on by default.
	PartSizeFloor int64
	// WriteFanout is the backend's preferred number of concurrently
	// written physical files (object stores parallelize across objects,
	// not within one); core defaults NFiles to it.
	WriteFanout int64
}

// CapabilityReporter is the optional FileSystem extension through which
// a backend publishes its descriptor.
type CapabilityReporter interface {
	Capabilities() Capabilities
}

// Unwrapper is implemented by Intercept, the one pass-through decorator
// (under Instrument, resil.Wrap and simfs.Flaky), so the backend's
// descriptor survives any decorator stack. A layer that changes semantics
// (the simulated object store over another backend) must not expose
// Unwrap.
type Unwrapper interface {
	Unwrap() FileSystem
}

// CapabilitiesOf walks fs down its Unwrap chain and returns the
// descriptor of the first layer that reports one, or the zero (POSIX)
// descriptor when no layer does.
func CapabilitiesOf(fs FileSystem) Capabilities {
	for {
		if r, ok := fs.(CapabilityReporter); ok {
			return r.Capabilities()
		}
		u, ok := fs.(Unwrapper)
		if !ok {
			return Capabilities{}
		}
		fs = u.Unwrap()
	}
}
