package discs_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiGolden holds the exported surface of every internal/ package, one
// declaration a line. Regenerate it with make api (DISCS_UPDATE_API=1
// go test -run TestAPISurface .) and commit the diff with the change
// that made it.
const apiGolden = "testdata/api.txt"

// TestAPISurface pins the exported API of the internal/ packages: every
// exported function and method with its signature, every exported type,
// struct field, interface method, constant and variable, as go/parser
// reads them from the non-test sources. Any change to that surface,
// deliberate or not, fails here until the golden file is regenerated,
// so it shows up as a diff of that file in review.
func TestAPISurface(t *testing.T) {
	got, err := apiSurface("internal")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DISCS_UPDATE_API") != "" {
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (write it with make api)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := lineSet(got), lineSet(want)
	for _, l := range strings.Split(string(want), "\n") {
		if l != "" && !gl[l] {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range strings.Split(string(got), "\n") {
		if l != "" && !wl[l] {
			t.Errorf("added:   %s", l)
		}
	}
	t.Errorf("the exported API of internal/ differs from %s; if the change is deliberate, regenerate it with make api", apiGolden)
}

func lineSet(b []byte) map[string]bool {
	m := map[string]bool{}
	for _, l := range strings.Split(string(b), "\n") {
		m[l] = true
	}
	return m
}

// apiSurface lists the exported declarations of every package under
// root, each line prefixed with the package's directory, sorted.
func apiSurface(root string) ([]byte, error) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range declLines(fset, f) {
			seen[pkg+": "+decl] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n"), nil
}

// declLines renders a file's exported declarations.
func declLines(fset *token.FileSet, f *ast.File) []string {
	src := func(n ast.Node) string {
		var b bytes.Buffer
		printer.Fprint(&b, fset, n)
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			recv := ""
			if d.Recv != nil && len(d.Recv.List) > 0 {
				typ := d.Recv.List[0].Type
				if !ast.IsExported(baseName(typ)) {
					continue
				}
				recv = "(" + src(typ) + ") "
			}
			out = append(out, "func "+recv+d.Name.Name+strings.TrimPrefix(src(d.Type), "func"))
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, typeLines(s, src)...)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if !n.IsExported() {
							continue
						}
						l := d.Tok.String() + " " + n.Name
						if s.Type != nil {
							l += " " + src(s.Type)
						}
						out = append(out, l)
					}
				}
			}
		}
	}
	return out
}

// typeLines renders an exported type with its exported fields or
// interface methods.
func typeLines(s *ast.TypeSpec, src func(ast.Node) string) []string {
	name := s.Name.Name
	head := "type " + name
	if s.TypeParams != nil {
		head += "[" + strings.TrimSuffix(strings.TrimPrefix(src(s.TypeParams), "("), ")") + "]"
	}
	if s.Assign.IsValid() {
		head += " ="
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		out := []string{head + " struct"}
		for _, f := range t.Fields.List {
			if len(f.Names) == 0 {
				if ast.IsExported(baseName(f.Type)) {
					out = append(out, "field "+name+"."+src(f.Type)+" (embedded)")
				}
				continue
			}
			for _, n := range f.Names {
				if n.IsExported() {
					out = append(out, "field "+name+"."+n.Name+" "+src(f.Type))
				}
			}
		}
		return out
	case *ast.InterfaceType:
		out := []string{head + " interface"}
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				if n.IsExported() {
					out = append(out, "method "+name+"."+n.Name+strings.TrimPrefix(src(m.Type), "func"))
				}
			}
			if len(m.Names) == 0 {
				out = append(out, "method "+name+"."+src(m.Type)+" (embedded)")
			}
		}
		return out
	}
	return []string{head + " " + src(s.Type)}
}

// baseName is the type name under pointers and type arguments.
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
