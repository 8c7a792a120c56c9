// Package unrun holds TestUnrun, which reads a merged cover profile and
// prints the statements no test binary ran, per package and per file. The
// package has no non-test code. From the module root:
//
//	go test -coverpkg=./internal/... -coverprofile=c.out ./internal/... ./cmd/... ./examples/...
//	go test -v -run TestUnrun ./internal/unrun -args -profile "$PWD/c.out"
//
// Without -profile the test skips. The count is printed, not gated: the
// sweeps and seeded tests reach a few statements or not depending on the
// goroutine schedule.
package unrun

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var profile = flag.String("profile", "", "merged cover profile to read (an absolute path: the test runs in its package directory)")

// block is one basic block of a cover profile. A profile that several test
// binaries wrote lists a block once per binary; the block ran if any of
// them counted it.
type block struct {
	file  string // import path of the file, as the profile names it
	line  int    // first line of the block
	stmts int
	run   bool
}

// parse reads a cover profile ("mode: …" lines, then one line
// "file:line.col,line.col stmts count" per block and binary) and returns
// each block once, in order of first appearance.
func parse(r io.Reader) ([]*block, error) {
	byPos := map[string]*block{}
	var blocks []*block
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		l := sc.Text()
		if l == "" || strings.HasPrefix(l, "mode:") {
			continue
		}
		f := strings.Fields(l)
		if len(f) != 3 {
			return nil, fmt.Errorf("malformed profile line %q", l)
		}
		colon := strings.LastIndexByte(f[0], ':')
		dot := strings.IndexByte(f[0][colon+1:], '.')
		if colon < 0 || dot < 0 {
			return nil, fmt.Errorf("malformed block position in %q", l)
		}
		line, err1 := strconv.Atoi(f[0][colon+1 : colon+1+dot])
		stmts, err2 := strconv.Atoi(f[1])
		count, err3 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("malformed numbers in %q", l)
		}
		b := byPos[f[0]]
		if b == nil {
			b = &block{file: f[0][:colon], line: line, stmts: stmts}
			byPos[f[0]] = b
			blocks = append(blocks, b)
		}
		b.run = b.run || count > 0
	}
	return blocks, sc.Err()
}

// tally is a count of unrun statements out of all statements.
type tally struct{ unrun, all int }

func (t *tally) add(b *block) {
	t.all += b.stmts
	if !b.run {
		t.unrun += b.stmts
	}
}

// report renders the unrun statements of blocks: one row per package
// (unrun / all), the total, then one row per file with unrun statements
// and the first line of each unrun block.
func report(blocks []*block) string {
	pkgs, files := map[string]*tally{}, map[string]*tally{}
	lines := map[string][]int{}
	var total tally
	for _, b := range blocks {
		pk := path.Dir(b.file)
		if pkgs[pk] == nil {
			pkgs[pk] = &tally{}
		}
		if files[b.file] == nil {
			files[b.file] = &tally{}
		}
		pkgs[pk].add(b)
		files[b.file].add(b)
		total.add(b)
		if !b.run && b.stmts > 0 {
			lines[b.file] = append(lines[b.file], b.line)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-32s %s\n", "package", "unrun / all")
	for _, pk := range sorted(pkgs) {
		fmt.Fprintf(&sb, "%-32s %d / %d\n", pk, pkgs[pk].unrun, pkgs[pk].all)
	}
	fmt.Fprintf(&sb, "%-32s %d / %d\n\n", "total", total.unrun, total.all)
	for _, f := range sorted(files) {
		if files[f].unrun == 0 {
			continue
		}
		ls := lines[f]
		sort.Ints(ls)
		strs := make([]string, len(ls))
		for i, l := range ls {
			strs[i] = strconv.Itoa(l)
		}
		fmt.Fprintf(&sb, "%s %d: lines %s\n", f, files[f].unrun, strings.Join(strs, ", "))
	}
	return sb.String()
}

func sorted(m map[string]*tally) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestUnrun prints the report for the profile named by -profile.
func TestUnrun(t *testing.T) {
	if *profile == "" {
		t.Skip("no -profile given; see the package comment for the command")
	}
	f, err := os.Open(*profile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	blocks, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Print(report(blocks))
}

// TestUnrunRule pins the merge rule on a profile of two binaries: a block
// counts as unrun only when every binary's entry for it has count 0.
func TestUnrunRule(t *testing.T) {
	const prof = `mode: set
repro/a/x.go:1.10,3.2 2 0
repro/a/x.go:4.10,6.2 1 0
repro/b/y.go:1.10,2.2 3 1
mode: set
repro/a/x.go:1.10,3.2 2 1
repro/a/x.go:4.10,6.2 1 0
repro/b/y.go:1.10,2.2 3 0
`
	blocks, err := parse(strings.NewReader(prof))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 {
		t.Fatalf("parsed %d blocks, want 3 (one per position)", len(blocks))
	}
	want := `package                          unrun / all
repro/a                          1 / 3
repro/b                          0 / 3
total                            1 / 6

repro/a/x.go 1: lines 4
`
	if got := report(blocks); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
	if _, err := parse(strings.NewReader("repro/a/x.go:1.10,3.2 2\n")); err == nil {
		t.Error("a line without a count parsed")
	}
}
