package backendflag

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/simfs"
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
		reg := obs.NewRegistry()
		fsys, err := Build(tc.spec, reg)
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
		var prom bytes.Buffer
		if err := reg.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if want := `backend="` + tc.label + `"`; !strings.Contains(prom.String(), want) {
			t.Errorf("Build(%q): registry lacks %s:\n%s", tc.spec, want, prom.String())
		}
		if obj := fsio.CapabilitiesOf(fsys).PartSizeFloor > 0; obj != tc.wantObj {
			t.Errorf("Build(%q) reports object-store parts %v, want %v", tc.spec, obj, tc.wantObj)
		}
	}
}

// TestBuildCapsSurviveInstrumentation pins that the backend's descriptor
// survives the instrumentation Build adds: posix reports the zero
// descriptor, the object store its own.
func TestBuildCapsSurviveInstrumentation(t *testing.T) {
	small, _ := simfs.ObjProfileByName("smallpart")
	for spec, want := range map[string]fsio.Capabilities{
		"posix":              {},
		"objstore,smallpart": fsio.CapabilitiesOf(simfs.NewObjStore(small).Wrap(fsio.NewOS(""), nil)),
	} {
		if spec != "posix" && want.PartSizeFloor <= 0 {
			t.Fatalf("%s: object store reports no part size: %+v", spec, want)
		}
		fsys, err := Build(spec, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if got := fsio.CapabilitiesOf(fsys); got != want {
			t.Errorf("%s: descriptor %+v through instrumentation, want %+v", spec, got, want)
		}
	}
}
