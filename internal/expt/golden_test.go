package expt

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// update rewrites testdata/*.golden from this run instead of comparing:
// `go test ./internal/expt -run TestGolden -update`, after reviewing why a
// table moved.
var update = flag.Bool("update", false, "rewrite testdata/*.golden instead of comparing against them")

// results memoises experiment runs, so the findings tests and TestGolden
// share one run of each (experiment, scale) per test process, in any test
// order. It is the only state the tests of this package share.
var results sync.Map // resultKey → *resultOnce

type resultKey struct {
	name  string
	scale int
}

type resultOnce struct {
	once sync.Once
	res  *Result
}

// result returns the named experiment's table at scale. Tests read it and
// must not modify it.
func result(t *testing.T, name string, scale int) *Result {
	t.Helper()
	run := ByName(name)
	if run == nil {
		t.Fatalf("unknown experiment %q", name)
	}
	v, _ := results.LoadOrStore(resultKey{name, scale}, new(resultOnce))
	m := v.(*resultOnce)
	m.once.Do(func() { m.res = run(scale) })
	if m.res == nil {
		t.Fatalf("%s at scale %d panicked in the test that ran it first", name, scale)
	}
	return m.res
}

// TestGolden is the repository's definition of "the same": every
// experiment's printed table at testScale equals its committed golden byte
// for byte. The tables are outputs of the simfs cost model over seeded
// workloads, so any difference is a behaviour change — in request counts,
// sizes, alignment, ordering, retries — not noise. `sionbench -exp all
// -scale 16` prints the goldens concatenated.
func TestGolden(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			// Experiments are independent simulations: those no earlier
			// test has run yet overlap on whatever cores there are.
			t.Parallel()
			var got bytes.Buffer
			result(t, name, testScale).Print(&got)
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (an experiment without a golden is unchecked; create it with -update)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Error(firstDiff(got.String(), string(want)))
			}
		})
	}
	// A golden no experiment produces means an experiment disappeared or
	// was renamed without its table going with it.
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name := strings.TrimSuffix(filepath.Base(f), ".golden"); !slices.Contains(Names(), name) {
			t.Errorf("%s: orphan golden, no experiment %q in Names()", f, name)
		}
	}
}

// firstDiff reports the first line at which got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of table>"
	}
	return fmt.Sprintf("line %d differs from the golden\n got: %s\nwant: %s", i+1, line(g), line(w))
}
