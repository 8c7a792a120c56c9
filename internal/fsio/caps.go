package fsio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Capability-tagged backends. Every layer of this library used to assume
// one implicit POSIX contract: atomic rename, cheap in-place updates, one
// block size, reads of any granularity. Real storage targets differ —
// an object store has a multipart part-size floor, ranged GETs with a
// practical request-size ceiling, and no in-place update at all — and
// the paper's central claim (the file mapping must be chosen to match
// the I/O pathways of the target file system, §3.1) extends naturally to
// the choice of request geometry. Capabilities makes the contract
// explicit: a backend reports one descriptor, decorators forward it
// unchanged, and the geometry-deciding layers (core.withDefaults, the
// serve miss path) read it instead of hard-coding POSIX assumptions.
//
// The zero value is the conservative POSIX-ish descriptor: every
// consumer treats zero fields as "no constraint / behave as before", so
// a backend that reports nothing gets exactly the pre-capability
// behavior.

// SyncSemantics describes what a successful File.Sync means on a
// backend.
type SyncSemantics uint8

const (
	// SyncDurable: Sync makes previously written bytes durable in place
	// (POSIX fsync). The watermark commit protocol requires this.
	SyncDurable SyncSemantics = iota
	// SyncOnSeal: durability is only reached when a write unit (an
	// object-store part or the whole object) is sealed; Sync flushes
	// pending parts but cannot re-sync bytes inside already-sealed
	// regions without a staged copy.
	SyncOnSeal

	syncSemanticsEnd // validation bound
)

func (s SyncSemantics) String() string {
	switch s {
	case SyncDurable:
		return "durable"
	case SyncOnSeal:
		return "on-seal"
	}
	return fmt.Sprintf("SyncSemantics(%d)", uint8(s))
}

// OpProfile is a backend's first-order cost model for one operation
// class: a fixed per-request latency plus a streaming throughput. Zero
// fields mean "unknown"; consumers must treat the profile as advisory
// (planning input, never correctness input).
type OpProfile struct {
	// LatencySecs is the fixed per-request round-trip cost in seconds.
	LatencySecs float64
	// ThroughputBps is the streaming rate in bytes per second once a
	// request is established.
	ThroughputBps float64
}

// Capabilities is one backend's self-description. Decorators
// (Instrument, resil.Wrap, simfs.Flaky) do not implement it themselves;
// they expose Unwrap and CapabilitiesOf walks through them, so the
// descriptor survives any decorator stack.
type Capabilities struct {
	// Backend names the backend ("os", "sim", "objstore"); it doubles
	// as the metrics label. Must be non-empty, at most
	// MaxBackendNameLen bytes, printable ASCII.
	Backend string

	// AtomicRename reports whether the backend can atomically replace
	// one name with another (POSIX rename). Object stores cannot.
	AtomicRename bool

	// InPlaceUpdate reports whether written regions may be overwritten
	// cheaply. When false, rewriting an already-durable region (header
	// updates, chunk-header seals) costs a staged copy on the backend
	// and callers should batch such rewrites.
	InPlaceUpdate bool

	// PreferredRequestBytes is the request size the backend performs
	// best at (the dense-span target for the serve miss path and the
	// span-gap default). 0 = no preference.
	PreferredRequestBytes int64

	// MinReadBytes is the smallest ranged read the backend serves
	// without padding the request up internally. 0 = byte-granular.
	MinReadBytes int64

	// MaxReadBytes is the largest single ranged read the backend
	// serves; larger logical reads must be split into several requests.
	// 0 = unbounded.
	MaxReadBytes int64

	// PartSizeFloor, when positive, declares multipart/append-only PUT
	// semantics with this minimum part size: writes become durable in
	// part-sized units and sub-part rewrites pay a staged copy. It is
	// the write-side staging alignment core.withDefaults tunes for.
	// 0 = plain in-place writes.
	PartSizeFloor int64

	// WriteFanout, when positive, is the backend's preferred number of
	// concurrently written physical files (object stores parallelize
	// across objects, not within one). core.withDefaults uses it to
	// auto-tune NFiles when the caller expressed no preference. 0 = no
	// preference.
	WriteFanout int64

	// Sync is the durability model of File.Sync.
	Sync SyncSemantics

	// Read and Write are advisory per-op cost profiles.
	Read, Write OpProfile
}

// MaxBackendNameLen bounds Capabilities.Backend in the wire encoding.
const MaxBackendNameLen = 64

// Validate checks the descriptor's internal consistency; Decode rejects
// anything Validate rejects, so an encoded descriptor round-trips.
func (c Capabilities) Validate() error {
	if len(c.Backend) > MaxBackendNameLen {
		return fmt.Errorf("fsio: backend name %d bytes (max %d)", len(c.Backend), MaxBackendNameLen)
	}
	for i := 0; i < len(c.Backend); i++ {
		if c.Backend[i] < 0x21 || c.Backend[i] > 0x7e {
			return fmt.Errorf("fsio: backend name contains non-printable byte %#x", c.Backend[i])
		}
	}
	for _, v := range []struct {
		name string
		v    int64
	}{
		{"PreferredRequestBytes", c.PreferredRequestBytes},
		{"MinReadBytes", c.MinReadBytes},
		{"MaxReadBytes", c.MaxReadBytes},
		{"PartSizeFloor", c.PartSizeFloor},
		{"WriteFanout", c.WriteFanout},
	} {
		if v.v < 0 {
			return fmt.Errorf("fsio: negative %s %d", v.name, v.v)
		}
	}
	if c.MaxReadBytes > 0 && c.MinReadBytes > c.MaxReadBytes {
		return fmt.Errorf("fsio: MinReadBytes %d > MaxReadBytes %d", c.MinReadBytes, c.MaxReadBytes)
	}
	if c.Sync >= syncSemanticsEnd {
		return fmt.Errorf("fsio: unknown SyncSemantics %d", c.Sync)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Read.LatencySecs", c.Read.LatencySecs},
		{"Read.ThroughputBps", c.Read.ThroughputBps},
		{"Write.LatencySecs", c.Write.LatencySecs},
		{"Write.ThroughputBps", c.Write.ThroughputBps},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v < 0 {
			return fmt.Errorf("fsio: %s %v not a finite non-negative value", p.name, p.v)
		}
	}
	return nil
}

// Wire format of a Capabilities descriptor (see Encode): used to ship
// the descriptor between ranks of a parallel open, so every task tunes
// its geometry from the same bytes regardless of local wrapping.
const (
	capsMagic   = "SCAP"
	capsVersion = 1

	capsFlagRename  = 1 << 0
	capsFlagInPlace = 1 << 1

	// MaxEncodedCapsLen bounds Encode's output: magic+version+flags+
	// sync+namelen + name + 5 int64 + 4 float64.
	MaxEncodedCapsLen = 4 + 1 + 1 + 1 + 1 + MaxBackendNameLen + 5*8 + 4*8
)

// Encode serializes the descriptor into the fixed-layout wire format.
// It panics if Validate fails — an invalid descriptor is a programming
// error in the backend, not an input condition.
func (c Capabilities) Encode() []byte {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	buf := make([]byte, 0, MaxEncodedCapsLen)
	buf = append(buf, capsMagic...)
	buf = append(buf, capsVersion)
	var flags byte
	if c.AtomicRename {
		flags |= capsFlagRename
	}
	if c.InPlaceUpdate {
		flags |= capsFlagInPlace
	}
	buf = append(buf, flags, byte(c.Sync), byte(len(c.Backend)))
	buf = append(buf, c.Backend...)
	for _, v := range []int64{c.PreferredRequestBytes, c.MinReadBytes, c.MaxReadBytes, c.PartSizeFloor, c.WriteFanout} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range []float64{c.Read.LatencySecs, c.Read.ThroughputBps, c.Write.LatencySecs, c.Write.ThroughputBps} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeCapabilities parses an Encode'd descriptor. Any truncated,
// mis-versioned, or invalid input returns a clean error; a successful
// decode always yields a descriptor that passes Validate.
func DecodeCapabilities(b []byte) (Capabilities, error) {
	var c Capabilities
	if len(b) < 8 {
		return c, fmt.Errorf("fsio: capabilities blob %d bytes, need at least 8", len(b))
	}
	if string(b[:4]) != capsMagic {
		return c, fmt.Errorf("fsio: bad capabilities magic %q", b[:4])
	}
	if b[4] != capsVersion {
		return c, fmt.Errorf("fsio: unsupported capabilities version %d", b[4])
	}
	flags, sync, nameLen := b[5], b[6], int(b[7])
	if flags&^(capsFlagRename|capsFlagInPlace) != 0 {
		return c, fmt.Errorf("fsio: unknown capability flags %#x", flags)
	}
	rest := b[8:]
	want := nameLen + 5*8 + 4*8
	if len(rest) != want {
		return c, fmt.Errorf("fsio: capabilities payload %d bytes, want %d", len(rest), want)
	}
	c.Backend = string(rest[:nameLen])
	rest = rest[nameLen:]
	c.AtomicRename = flags&capsFlagRename != 0
	c.InPlaceUpdate = flags&capsFlagInPlace != 0
	c.Sync = SyncSemantics(sync)
	ints := []*int64{&c.PreferredRequestBytes, &c.MinReadBytes, &c.MaxReadBytes, &c.PartSizeFloor, &c.WriteFanout}
	for _, p := range ints {
		*p = int64(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	floats := []*float64{&c.Read.LatencySecs, &c.Read.ThroughputBps, &c.Write.LatencySecs, &c.Write.ThroughputBps}
	for _, p := range floats {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
	}
	if err := c.Validate(); err != nil {
		return Capabilities{}, err
	}
	return c, nil
}

// CapabilityReporter is the optional FileSystem extension through which
// a backend publishes its descriptor.
type CapabilityReporter interface {
	Capabilities() Capabilities
}

// Unwrapper is implemented by pass-through decorators (Instrument,
// resil.Wrap, simfs.Flaky): Unwrap returns the decorated FileSystem so
// optional interfaces of the backend survive any decorator stack. A
// semantics-changing layer (a backend built on top of another backend,
// like the simulated object store) must NOT expose Unwrap — it answers
// optional interfaces itself or not at all.
type Unwrapper interface {
	Unwrap() FileSystem
}

// As walks fs down its Unwrap chain and returns the first layer that
// implements T. It is the shared forwarding helper every optional
// interface goes through, so a decorator only has to implement Unwrap
// once to forward all of them, present and future.
func As[T any](fs FileSystem) (T, bool) {
	for fs != nil {
		if t, ok := fs.(T); ok {
			return t, true
		}
		u, ok := fs.(Unwrapper)
		if !ok {
			break
		}
		fs = u.Unwrap()
	}
	var zero T
	return zero, false
}

// CapabilitiesOf returns the descriptor of the first capability-
// reporting layer of fs's decorator stack, or the zero (conservative
// POSIX-ish) descriptor when no layer reports one.
func CapabilitiesOf(fs FileSystem) Capabilities {
	if r, ok := As[CapabilityReporter](fs); ok {
		return r.Capabilities()
	}
	return Capabilities{}
}
