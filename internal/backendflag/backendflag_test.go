package backendflag

import (
	"strings"
	"testing"

	"repro/internal/fsio"
	"repro/internal/obs"
)

func TestBuildSpecs(t *testing.T) {
	cases := []struct {
		spec      string
		label     string
		wantObj   bool
		wantError string
	}{
		{spec: "posix", label: "os"},
		{spec: "", label: "os"},
		{spec: "objstore", label: "objstore", wantObj: true},
		{spec: "objstore,s3", label: "objstore", wantObj: true},
		{spec: "objstore,smallpart", label: "objstore", wantObj: true},
		{spec: "objstore,bogus", wantError: "unknown objstore profile"},
		{spec: "posix,s3", wantError: "takes no profile"},
		{spec: "tape", wantError: "unknown backend"},
	}
	for _, tc := range cases {
		st, err := Build(tc.spec, nil)
		if tc.wantError != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantError) {
				t.Errorf("Build(%q) err = %v, want %q", tc.spec, err, tc.wantError)
			}
			continue
		}
		if err != nil {
			t.Errorf("Build(%q): %v", tc.spec, err)
			continue
		}
		if st.Label != tc.label {
			t.Errorf("Build(%q) label = %q, want %q", tc.spec, st.Label, tc.label)
		}
		if (st.Obj != nil) != tc.wantObj {
			t.Errorf("Build(%q) Obj = %v, want present=%v", tc.spec, st.Obj, tc.wantObj)
		}
	}
}

// TestBuildCapsSurviveInstrumentation pins that the backend's descriptor
// survives the instrumentation Build adds: posix reports the zero
// descriptor, the object store its own.
func TestBuildCapsSurviveInstrumentation(t *testing.T) {
	for _, spec := range []string{"posix", "objstore,smallpart"} {
		st, err := Build(spec, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		var want fsio.Capabilities
		if st.Obj != nil {
			want = fsio.CapabilitiesOf(st.Obj.Wrap(fsio.NewOS(""), nil))
			if want.PartSizeFloor <= 0 {
				t.Fatalf("%s: object store reports no part size: %+v", spec, want)
			}
		}
		if got := fsio.CapabilitiesOf(st.FS); got != want {
			t.Errorf("%s: descriptor %+v through instrumentation, want %+v", spec, got, want)
		}
	}
}
