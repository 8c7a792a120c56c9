package fsio

import "testing"

// reportingFS is an OS backend that reports a descriptor, as a backend
// with geometry preferences (the simulated object store) does.
type reportingFS struct {
	*OS
	caps Capabilities
}

func (r reportingFS) Capabilities() Capabilities { return r.caps }

// TestCapsForwarding pins the unwrap walk: a metered decorator forwards
// the backend's descriptor, and a backend with no descriptor yields the
// zero (POSIX) value.
func TestCapsForwarding(t *testing.T) {
	want := Capabilities{PreferredRequestBytes: 1 << 20, MaxReadBytes: 4 << 20, PartSizeFloor: 1 << 20, WriteFanout: 8}
	base := reportingFS{NewOS(t.TempDir()), want}
	wrapped := Instrument(base, NewMeter(nil, "objstore"))
	if got := CapabilitiesOf(wrapped); got != want {
		t.Fatalf("Instrument dropped capabilities: got %+v, want %+v", got, want)
	}
	// Neither reporter nor unwrapper, directly or under Instrument → zero.
	for name, fs := range map[string]FileSystem{
		"os":             NewOS(t.TempDir()),
		"bare":           bareFS{base},
		"instrument(os)": Instrument(NewOS(t.TempDir()), NewMeter(nil, "os")),
	} {
		if c := CapabilitiesOf(fs); c != (Capabilities{}) {
			t.Errorf("%s reported %+v, want zero", name, c)
		}
	}
}

// bareFS hides the wrapped backend's optional interfaces.
type bareFS struct{ inner FileSystem }

func (b bareFS) Create(name string) (File, error)   { return b.inner.Create(name) }
func (b bareFS) Open(name string) (File, error)     { return b.inner.Open(name) }
func (b bareFS) OpenRW(name string) (File, error)   { return b.inner.OpenRW(name) }
func (b bareFS) Stat(name string) (FileInfo, error) { return b.inner.Stat(name) }
func (b bareFS) Remove(name string) error           { return b.inner.Remove(name) }
func (b bareFS) BlockSize(name string) int64        { return b.inner.BlockSize(name) }
