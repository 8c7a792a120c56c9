// Package apisurface holds TestAPISurface, which pins the repository's
// exported API in testdata/api.golden. The package has no non-test code.
package apisurface

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// update rewrites testdata/api.golden from the source instead of comparing:
// `go test ./internal/apisurface -update`, after reviewing the diff.
var update = flag.Bool("update", false, "rewrite testdata/api.golden instead of comparing against it")

// roots are the directories, relative to the module root, whose non-test
// files make up the API. bench/ is a module of its own and a caller only.
var roots = []string{"cmd", "internal", "examples"}

// TestAPISurface lists one line per exported identifier in an exported
// scope, sorted, and compares the list with testdata/api.golden exactly: a
// change that adds, removes or re-signs an exported func, method, type,
// field, const, var or interface method shows in the golden's diff.
// Files are parsed regardless of build tags, so the golden is the same on
// every GOOS and a platform pair of files lists its declarations once.
func TestAPISurface(t *testing.T) {
	got, err := surface(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := lines(got), lines(want)
	for _, l := range wl {
		if !slices.Contains(gl, l) {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range gl {
		if !slices.Contains(wl, l) {
			t.Errorf("added:   %s", l)
		}
	}
	t.Errorf("exported API differs from %s; after review, rerun with -update", golden)
}

func lines(b []byte) []string {
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// surface parses every non-test .go file under the roots of the module at
// root and returns the sorted, de-duplicated API lines.
func surface(root string) ([]byte, error) {
	fset := token.NewFileSet()
	set := map[string]bool{}
	for _, r := range roots {
		err := filepath.WalkDir(filepath.Join(root, r), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			for _, l := range declLines(fset, f) {
				set[filepath.ToSlash(rel)+" "+l] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	slices.Sort(out)
	return []byte(strings.Join(out, "\n") + "\n"), nil
}

// declLines returns the API lines of one file's exported declarations.
func declLines(fset *token.FileSet, f *ast.File) []string {
	var out []string
	str := func(n ast.Node) string {
		var b strings.Builder
		if err := printer.Fprint(&b, fset, n); err != nil {
			panic(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			sig := strings.TrimPrefix(str(d.Type), "func")
			if d.Recv == nil {
				if d.Name.IsExported() {
					out = append(out, "func "+d.Name.Name+sig)
				}
				continue
			}
			recv := d.Recv.List[0].Type
			if !d.Name.IsExported() || !ast.IsExported(baseName(recv)) {
				continue
			}
			out = append(out, "method ("+str(recv)+") "+d.Name.Name+sig)
		case *ast.GenDecl:
			var typ ast.Expr // a const spec without a type repeats the last one
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, typeLines(str, s)...)
					}
				case *ast.ValueSpec:
					kind := d.Tok.String()
					if s.Type != nil || len(s.Values) > 0 {
						typ = s.Type
					}
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						l := kind + " " + n.Name
						if d.Tok == token.VAR && s.Type != nil || d.Tok == token.CONST && typ != nil {
							t := s.Type
							if t == nil {
								t = typ
							}
							l += " " + str(t)
						}
						out = append(out, l)
					}
				}
			}
		}
	}
	return out
}

// typeLines lists an exported type and, for a struct or an interface, its
// exported fields and its methods.
func typeLines(str func(ast.Node) string, s *ast.TypeSpec) []string {
	name := s.Name.Name
	head := "type " + name + typeParams(str, s.TypeParams)
	if s.Assign.IsValid() {
		head += " ="
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		out := []string{head + " struct"}
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				if ast.IsExported(baseName(f.Type)) {
					out = append(out, "embed "+name+" "+str(f.Type))
				}
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					out = append(out, "field "+name+"."+n.Name+" "+str(f.Type))
				}
			}
		}
		return out
	case *ast.InterfaceType:
		out := []string{head + " interface"}
		for _, m := range t.Methods.List {
			if len(m.Names) == 0 {
				out = append(out, "embed "+name+" "+str(m.Type))
				continue
			}
			for _, n := range m.Names {
				if n.IsExported() {
					out = append(out, "method ("+name+") "+n.Name+strings.TrimPrefix(str(m.Type), "func"))
				}
			}
		}
		return out
	}
	return []string{head + " " + str(s.Type)}
}

func typeParams(str func(ast.Node) string, tp *ast.FieldList) string {
	if tp == nil {
		return ""
	}
	return "[" + strings.TrimSuffix(strings.TrimPrefix(str(&ast.FuncType{Params: tp}), "func("), ")") + "]"
}

// baseName is the type name under a receiver or an embedded field:
// T, *T, T[P] and pkg.T all give T.
func baseName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.SelectorExpr:
			return t.Sel.Name
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
