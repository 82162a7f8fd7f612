package repro

// Two checks that keep the source tree from drifting, built on go/parser
// and go/ast alone:
//
//   - TestNoTestOnlyExportedAPI: every exported function, method and type
//     of a non-main package must be named somewhere outside its own
//     declaration by non-test code of this module or of perfbench/, by an
//     interface method, or by an Example function. Names without such a
//     use are listed, with a reason, in testdata/exported_allowlist.txt.
//   - TestFuzzTargetsInCI: every Fuzz* target gets its short burn in the
//     CI fuzz-smoke list, under its own package path.
//
// The use check is by bare name, not by resolved object: a method called
// Reset counts as used when any Reset is called. It therefore misses some
// dead code, but every name it flags is dead outside tests.

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goFile is one parsed source file and the module-relative directory of
// its package ("." for the root).
type goFile struct {
	dir  string
	test bool
	f    *ast.File
}

// parseTree parses every .go file under the repository root, both modules
// included. Hidden and testdata directories are skipped.
func parseTree(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"),
			f:    f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvType is the type name of a method receiver: T for T, *T, T[P].
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// countUses adds every identifier under n to uses, except the name that n
// itself declares and, for a method, its receiver's type name.
func countUses(n ast.Node, uses map[string]bool) {
	var skip []*ast.Ident
	switch d := n.(type) {
	case *ast.FuncDecl:
		skip = append(skip, d.Name)
		if d.Recv != nil && len(d.Recv.List) > 0 {
			ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip = append(skip, id)
				}
				return true
			})
		}
	case *ast.TypeSpec:
		skip = append(skip, d.Name)
	}
	self := ""
	if len(skip) > 0 {
		self = skip[0].Name
	}
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		for _, s := range skip {
			if id == s {
				return true
			}
		}
		if id.Name != self {
			uses[id.Name] = true
		}
		return true
	})
}

// exportedDecls maps "dir.Name" or "dir.Type.Method" to the bare name for
// every exported function, method and type declared by non-test files of
// non-main packages.
func exportedDecls(files []goFile) map[string]string {
	decls := map[string]string{}
	for _, gf := range files {
		if gf.test || gf.f.Name.Name == "main" {
			continue
		}
		for _, d := range gf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key := gf.dir + "." + d.Name.Name
				if r := recvType(d); r != "" {
					key = gf.dir + "." + r + "." + d.Name.Name
				}
				decls[key] = d.Name.Name
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						decls[gf.dir+"."+ts.Name.Name] = ts.Name.Name
					}
				}
			}
		}
	}
	return decls
}

// usedNames is every identifier that non-test code names outside the
// declaration it sits in, plus every identifier inside Example functions.
func usedNames(files []goFile) map[string]bool {
	uses := map[string]bool{}
	for _, gf := range files {
		for _, d := range gf.f.Decls {
			if gf.test {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					countUses(fd.Body, uses)
				}
				continue
			}
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				countUses(d, uses)
				continue
			}
			for _, s := range gd.Specs {
				countUses(s, uses)
			}
		}
	}
	return uses
}

// readAllowlist reads "dir.Name  reason" lines; blank lines and lines
// starting with # are ignored.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func TestNoTestOnlyExportedAPI(t *testing.T) {
	const allowPath = "testdata/exported_allowlist.txt"
	files := parseTree(t)
	decls := exportedDecls(files)
	uses := usedNames(files)
	allow := readAllowlist(t, allowPath)

	var unused []string
	for key, name := range decls {
		if !uses[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := allow[key]; !ok {
			t.Errorf("%s is exported but only tests call it: delete it, give it a caller, or add it with a reason to %s", key, allowPath)
		}
	}
	for key := range allow {
		name, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("%s: stale entry %s: no such exported name", allowPath, key)
		case uses[name]:
			t.Errorf("%s: stale entry %s: non-test code now uses it", allowPath, key)
		}
	}
}

// ciFuzzLine is one entry of the fuzz-smoke list: "fuzz FuzzName ./pkg/".
var ciFuzzLine = regexp.MustCompile(`^\s*fuzz\s+(Fuzz\w+)\s+(\S+)\s*$`)

func TestFuzzTargetsInCI(t *testing.T) {
	const ciPath = ".github/workflows/ci.yml"
	want := map[string]bool{}
	for _, gf := range parseTree(t) {
		if !gf.test {
			continue
		}
		for _, d := range gf.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				pkg := "."
				if gf.dir != "." {
					pkg = "./" + gf.dir + "/"
				}
				want[fd.Name.Name+" "+pkg] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no Fuzz* targets found")
	}
	ci, err := os.ReadFile(ciPath)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(ci), "\n") {
		if m := ciFuzzLine.FindStringSubmatch(line); m != nil {
			listed[m[1]+" "+m[2]] = true
		}
	}
	for k := range want {
		if !listed[k] {
			t.Errorf("fuzz target %q is missing from the fuzz list in %s", k, ciPath)
		}
	}
	for k := range listed {
		if !want[k] {
			t.Errorf("%s lists fuzz target %q, which does not exist", ciPath, k)
		}
	}
}
