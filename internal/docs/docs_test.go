// Package docs holds the tests that keep the repository's documents views
// of the code and its tests. The package has no non-test code.
//
// internal/README.md holds generated regions, each between
// "<!-- gen:NAME -->" and "<!-- /gen:NAME -->" lines: TestGeneratedRegions
// rebuilds them from the source and the goldens that own their numbers and
// fails on any difference; `go test ./internal/docs -update` rewrites
// them. The other tests hold README.md and internal/README.md to what a
// view may say (no file:line reference, no before → after pair, paths that
// exist, a quick start that runs every program) and CHANGES.md to
// ledger-sized lines.
package docs

import (
	"bytes"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the generated regions of internal/README.md instead of comparing")

// root is the module root, relative to this package's directory.
const root = "../.."

// docs are the documents the view rules hold, relative to the root.
var docs = []string{"README.md", "internal/README.md"}

// regions maps each generated region of internal/README.md to the
// function that renders it.
var regions = map[string]func() (string, error){
	"api":      apiRegion,
	"lines":    linesRegion,
	"ablation": ablationRegion,
}

var regionRE = regexp.MustCompile(`(?s)<!-- gen:(\w+) -->\n(.*?)<!-- /gen:(\w+) -->`)

// TestGeneratedRegions rebuilds every generated region of
// internal/README.md and compares it with the document; -update writes
// the rebuilt regions back.
func TestGeneratedRegions(t *testing.T) {
	path := filepath.Join(root, "internal", "README.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var failed error
	got := regionRE.ReplaceAllStringFunc(string(doc), func(m string) string {
		sub := regionRE.FindStringSubmatch(m)
		name, body := sub[1], sub[2]
		render := regions[name]
		switch {
		case sub[3] != name:
			t.Errorf("region %q ends with the marker of %q", name, sub[3])
			return m
		case render == nil:
			t.Errorf("unknown region %q", name)
			return m
		case seen[name]:
			t.Errorf("region %q appears twice", name)
			return m
		}
		seen[name] = true
		want, err := render()
		if err != nil {
			failed = err
			return m
		}
		if !*update && body != want {
			t.Errorf("region %q is stale; after review, rerun with -update:\n%s", name, lineDiff(body, want))
		}
		return "<!-- gen:" + name + " -->\n" + want + "<!-- /gen:" + name + " -->"
	})
	if failed != nil {
		t.Fatal(failed)
	}
	for name := range regions {
		if !seen[name] {
			t.Errorf("internal/README.md has no region %q", name)
		}
	}
	if *update && got != string(doc) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// lineDiff lists the lines only the document has ("- ") and the lines
// only the generated region has ("+ ").
func lineDiff(doc, gen string) string {
	d, g := strings.Split(doc, "\n"), strings.Split(gen, "\n")
	var out strings.Builder
	for _, l := range d {
		if !slices.Contains(g, l) {
			out.WriteString("- " + l + "\n")
		}
	}
	for _, l := range g {
		if !slices.Contains(d, l) {
			out.WriteString("+ " + l + "\n")
		}
	}
	return out.String()
}

// apiRegion counts the exported identifiers per package in the API golden.
func apiRegion() (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "internal", "apisurface", "testdata", "api.golden"))
	if err != nil {
		return "", err
	}
	count := map[string]int{}
	var pkgs []string
	for _, l := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		pkg, _, _ := strings.Cut(l, " ")
		if count[pkg] == 0 {
			pkgs = append(pkgs, pkg)
		}
		count[pkg]++
	}
	slices.Sort(pkgs)
	var out strings.Builder
	out.WriteString("| package | exported identifiers |\n|---|---:|\n")
	total := 0
	for _, p := range pkgs {
		fmt.Fprintf(&out, "| `%s` | %d |\n", p, count[p])
		total += count[p]
	}
	fmt.Fprintf(&out, "| total | %d |\n", total)
	return out.String(), nil
}

// linesRegion counts the lines of the non-test and the test .go files of
// every package under cmd, internal and examples, as `wc -l` does.
func linesRegion() (string, error) {
	type tally struct{ code, test int }
	count := map[string]*tally{}
	var pkgs []string
	for _, r := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, r), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			dir, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			dir = filepath.ToSlash(dir)
			c := count[dir]
			if c == nil {
				c = &tally{}
				count[dir] = c
				pkgs = append(pkgs, dir)
			}
			n := bytes.Count(b, []byte("\n"))
			if strings.HasSuffix(path, "_test.go") {
				c.test += n
			} else {
				c.code += n
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	slices.Sort(pkgs)
	var out strings.Builder
	out.WriteString("| package | non-test | test |\n|---|---:|---:|\n")
	var total tally
	for _, p := range pkgs {
		c := count[p]
		fmt.Fprintf(&out, "| `%s` | %d | %d |\n", p, c.code, c.test)
		total.code += c.code
		total.test += c.test
	}
	fmt.Fprintf(&out, "| total | %d | %d |\n", total.code, total.test)
	return out.String(), nil
}

// ablationRegion renders serve's ablation golden: per mechanism the rows
// its ablation moves and the largest relative move among their hit ratio,
// backend reads and backend bytes per served byte.
func ablationRegion() (string, error) {
	path := filepath.Join(root, "internal", "serve", "testdata", "ablation.golden")
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	header := strings.Fields(lines[0])
	cols := map[string]int{}
	for i, h := range header {
		cols[h] = i
	}
	var out strings.Builder
	out.WriteString("| mechanism off | rows moved | largest move (golden → ablated) |\n|---|---:|---|\n")
	for i := 1; i < len(lines); {
		name := lines[i]
		i++
		moved, best, bestMove := 0, 0.0, ""
		for ; i+1 < len(lines) && strings.HasPrefix(lines[i], "- "); i += 2 {
			was, now := strings.Fields(lines[i][2:]), strings.Fields(lines[i+1][2:])
			if !strings.HasPrefix(lines[i+1], "+ ") || len(was) != len(header) || len(now) != len(header) {
				return "", fmt.Errorf("%s: malformed row pair at line %d", path, i+1)
			}
			moved++
			for _, c := range []string{"hit", "reads/1k", "B/B"} {
				x, err1 := strconv.ParseFloat(was[cols[c]], 64)
				y, err2 := strconv.ParseFloat(now[cols[c]], 64)
				if err1 != nil || err2 != nil {
					return "", fmt.Errorf("%s: column %s at line %d is not a number", path, c, i+1)
				}
				if rel := math.Abs(y-x) / math.Max(math.Abs(x), 1e-9); x != y && rel > best {
					best = rel
					bestMove = fmt.Sprintf("%s %s: %s %s → %s", was[0], was[1], c, was[cols[c]], now[cols[c]])
				}
			}
		}
		if moved == 0 {
			return "", fmt.Errorf("%s: mechanism %q moves no row", path, name)
		}
		fmt.Fprintf(&out, "| %s | %d | %s |\n", name, moved, bestMove)
	}
	return out.String(), nil
}

// prose returns a document with its generated regions cut out.
func prose(t *testing.T, name string) string {
	b, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		t.Fatal(err)
	}
	return regionRE.ReplaceAllString(string(b), "")
}

var (
	fileLineRE = regexp.MustCompile(`[\w.-]+\.go:\d+`)
	// a number, perhaps with a unit, an arrow, and a number
	pairRE   = regexp.MustCompile(`\d[\d.,]*(?:\s?[A-Za-z%×µ/]+)?\s*(?:→|->)\s*[-+−~≈]?\d`)
	bareGoRE = regexp.MustCompile(`(?:^|[^\w/.-])([\w-]+\.go)\b`)
)

// TestDocsAreViews: outside the generated regions, README.md and
// internal/README.md name no source line (name.go:N), which drifts with
// every edit of the file, and no before → after pair of numbers, which
// CHANGES.md and the git log keep. A .go file is named with its package
// directory (serve/fetch.go), so the reference can be checked.
func TestDocsAreViews(t *testing.T) {
	for _, name := range docs {
		text := prose(t, name)
		for _, l := range strings.Split(text, "\n") {
			if m := fileLineRE.FindString(l); m != "" {
				t.Errorf("%s: a file:line reference (%s) in %q", name, m, l)
			}
			if m := pairRE.FindString(l); m != "" {
				t.Errorf("%s: a before → after pair (%s) in %q", name, m, l)
			}
			for _, m := range bareGoRE.FindAllStringSubmatch(l, -1) {
				t.Errorf("%s: %s without its package directory in %q", name, m[1], l)
			}
		}
	}
}

var (
	fenceRE    = regexp.MustCompile("(?ms)^```.*?^```[ \t]*$")
	backtickRE = regexp.MustCompile("`([^`\n]+)`")
	linkRE     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	pathRE     = regexp.MustCompile(`^[\w.-]+(/[\w.-]+)+/?$`)
	fileExtRE  = regexp.MustCompile(`\.(go|md|golden|json|ya?ml|sh|txt)$`)
)

// TestReferencesResolve: every path a document names — a backticked
// path with a slash, a word of a backticked command that starts with
// "./", a relative link — exists, relative to the repository root or to
// internal/. A backticked slash-separated name counts as a path when its
// first element is a directory there or its last a file with an
// extension the repository uses (log/slog and MissPath/cold/ratio are
// not paths).
func TestReferencesResolve(t *testing.T) {
	stat := func(p string) fs.FileInfo {
		for _, base := range []string{root, filepath.Join(root, "internal")} {
			if st, err := os.Stat(filepath.Join(base, filepath.FromSlash(p))); err == nil {
				return st
			}
		}
		return nil
	}
	exists := func(p string) bool { return stat(p) != nil }
	isDir := func(p string) bool {
		first, _, _ := strings.Cut(p, "/")
		st := stat(first)
		return st != nil && st.IsDir()
	}
	for _, name := range docs {
		text := fenceRE.ReplaceAllString(prose(t, name), "")
		for _, m := range backtickRE.FindAllStringSubmatch(text, -1) {
			span := m[1]
			if pathRE.MatchString(span) && (isDir(span) || fileExtRE.MatchString(span)) && !exists(span) {
				t.Errorf("%s: `%s` does not exist", name, span)
			}
			for _, w := range strings.Fields(span) {
				w = strings.TrimRight(strings.TrimSuffix(w, "..."), "/")
				if strings.HasPrefix(w, "./") && len(w) > 2 && !exists(w) {
					t.Errorf("%s: %s in `%s` does not exist", name, w, span)
				}
			}
		}
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") {
				continue
			}
			dir := filepath.Dir(name)
			if _, err := os.Stat(filepath.Join(root, dir, filepath.FromSlash(target))); err != nil {
				t.Errorf("%s: link target %s does not exist", name, m[1])
			}
		}
	}
}

var goRunRE = regexp.MustCompile(`go run (\./[\w./-]+)`)

// TestQuickStartRunsEveryProgram: README.md's quick start runs every
// program under cmd/ and examples/ (`go run ./…`), and every program it
// runs is a main package.
func TestQuickStartRunsEveryProgram(t *testing.T) {
	text := prose(t, "README.md")
	_, qs, ok := strings.Cut(text, "\n## Quick start\n")
	if !ok {
		t.Fatal("README.md has no \"## Quick start\" section")
	}
	qs, _, _ = strings.Cut(qs, "\n## ")
	named := map[string]bool{}
	for _, m := range goRunRE.FindAllStringSubmatch(qs, -1) {
		dir := strings.TrimRight(strings.TrimPrefix(m[1], "./"), "/.")
		named[dir] = true
		pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, dir), nil, parser.PackageClauseOnly)
		if err != nil {
			t.Errorf("quick start: go run ./%s: %v", dir, err)
			continue
		}
		if _, ok := pkgs["main"]; !ok {
			t.Errorf("quick start: go run ./%s is not a main package", dir)
		}
	}
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !named[parent+"/"+e.Name()] {
				t.Errorf("quick start: no `go run ./%s/%s`", parent, e.Name())
			}
		}
	}
}

// maxEntry is the cap on a CHANGES.md line: one PR's entry.
const maxEntry = 2048

var foundRE = regexp.MustCompile(`^(- )?(FOUND|MENDED):`)

// TestChangesIsALedger holds every CHANGES.md line but the FOUND: and
// MENDED: lines, which stay verbatim, to maxEntry bytes.
func TestChangesIsALedger(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range strings.Split(string(b), "\n") {
		if len(l) > maxEntry && !foundRE.MatchString(l) {
			t.Errorf("CHANGES.md:%d is %d bytes, over the %d-byte cap on an entry: %.60s…", i+1, len(l), maxEntry, l)
		}
	}
}
