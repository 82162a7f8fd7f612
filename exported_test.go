package repro

// Two checks that keep the source tree from drifting, built on go/parser
// and go/types alone:
//
//   - TestNoTestOnlyExportedAPI: every package-level function, method, type
//     and const of either module (this one and perfbench/), exported or
//     not, must be reachable from a program root, and every unexported
//     struct field that reachable code writes must also be read by it.
//     The roots are main and init functions, package-level var
//     initialisers, Example functions and the entries of
//     testdata/exported_allowlist.txt, each listed there with a reason.
//   - TestFuzzTargetsInCI: every Fuzz* target gets its short burn in the
//     CI fuzz-smoke list, under its own package path.
//
// Reachability is over resolved objects, not names: a reachable
// declaration reaches every object its body names, and a reachable named
// type that implements (itself or as a pointer) a whole interface declared
// here or in an imported package reaches its methods of that interface,
// so String, Error and RoundTrip methods stay without an explicit call. A
// method that only shares its name and signature with an interface
// method, such as Len on a type that is no sort.Interface, stays only if
// something calls it.

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// goFile is one parsed source file and the directory of its package,
// relative to the tree's root ("." for the root).
type goFile struct {
	dir  string
	test bool
	f    *ast.File
}

// parseTree parses every .go file under root, nested modules included.
// Hidden and testdata directories are skipped.
func parseTree(t *testing.T, root string, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, goFile{
			dir:  filepath.ToSlash(rel),
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

// isExample reports whether d is an Example function.
func isExample(d ast.Decl) bool {
	fd, ok := d.(*ast.FuncDecl)
	return ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example")
}

// stdImporter resolves packages outside the tree from their export data.
// One instance serves every check so that each is loaded once.
var stdImporter = importer.Default()

// loader type-checks the packages of one tree, each once, in dependency
// order: importing a package of the tree checks it first. A nested module
// must have the path of its directory under the root module, as
// perfbench/ does.
type loader struct {
	t      *testing.T
	fset   *token.FileSet
	module string
	src    map[string][]*ast.File // directory → non-test files
	pkgs   map[string]*types.Package
	info   map[string]*types.Info
}

func (l *loader) pathOf(dir string) string {
	if dir == "." {
		return l.module
	}
	return l.module + "/" + dir
}

func (l *loader) dirOf(path string) (string, bool) {
	if path == l.module {
		return ".", true
	}
	dir, ok := strings.CutPrefix(path, l.module+"/")
	return dir, ok
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirOf(path)
	if !ok {
		return stdImporter.Import(path)
	}
	if p := l.pkgs[dir]; p != nil {
		return p, nil
	}
	p, info := l.check(path, l.src[dir])
	l.pkgs[dir], l.info[dir] = p, info
	return p, nil
}

func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking %s: %v", path, err)
	}
	return p, info
}

// decl is a declaration the walk can reach: the node whose identifiers it
// follows, the type information that resolves them and, for a type, the
// type's object.
type decl struct {
	key  string // "dir.Name" or "dir.Type.Method"; "" for a root that is never reported
	node ast.Node
	info *types.Info
	typ  *types.TypeName
}

// deadCode is what the walk found.
type deadCode struct {
	unreachable []string // declarations that no root reaches
	writeOnly   []string // unexported fields that reachable code writes but never reads
	stale       []string // allowlist entries that do not exist or that the other roots reach
}

// findDeadCode type-checks every package under root, whose module path is
// module, and walks from its roots, each allowlist key among them.
func findDeadCode(t *testing.T, root, module string, allow map[string]string) deadCode {
	t.Helper()
	fset := token.NewFileSet()
	l := &loader{t: t, fset: fset, module: module, src: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, info: map[string]*types.Info{}}
	examples := map[string][]*ast.File{} // directory → test files with Examples
	for _, gf := range parseTree(t, root, fset) {
		if !gf.test {
			l.src[gf.dir] = append(l.src[gf.dir], gf.f)
		} else if slices.ContainsFunc(gf.f.Decls, isExample) {
			examples[gf.dir] = append(examples[gf.dir], gf.f)
		}
	}

	// Declarations and fields are keyed by the position of their name, so
	// that a package checked twice, once with its Examples, has one graph.
	decls := map[token.Pos]*decl{}
	byKey := map[string]*decl{}
	fields := map[token.Pos]string{}
	var roots []*decl
	for dir, files := range l.src {
		if _, err := l.Import(l.pathOf(dir)); err != nil {
			t.Fatal(err)
		}
		info := l.info[dir]
		prefix := dir + "."
		if dir == "." {
			prefix = ""
		}
		add := func(id *ast.Ident, key string, node ast.Node) {
			if id.Name == "_" {
				return
			}
			d := &decl{key: key, node: node, info: info}
			d.typ, _ = info.Defs[id].(*types.TypeName)
			decls[id.Pos()], byKey[key] = d, d
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv != nil:
						add(d.Name, prefix+recvType(d)+"."+d.Name.Name, d)
					case d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main":
						roots = append(roots, &decl{node: d, info: info})
					default:
						add(d.Name, prefix+d.Name.Name, d)
					}
				case *ast.GenDecl:
					// A const spec without values repeats the type and
					// values of the last one with values.
					var typ ast.Expr
					var values []ast.Expr
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, prefix+s.Name.Name, s)
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, fl := range st.Fields.List {
									for _, n := range fl.Names {
										if !n.IsExported() {
											fields[n.Pos()] = prefix + s.Name.Name + "." + n.Name
										}
									}
								}
							}
						case *ast.ValueSpec:
							if d.Tok == token.VAR {
								roots = append(roots, &decl{node: s, info: info})
								continue
							}
							if s.Values != nil {
								typ, values = s.Type, s.Values
							}
							body := &ast.ValueSpec{Type: typ, Values: values}
							for _, n := range s.Names {
								add(n, prefix+n.Name, body)
							}
						}
					}
				}
			}
		}
	}
	for dir, files := range examples {
		path := l.pathOf(dir) + "_test"
		if files[0].Name.Name == l.pkgs[dir].Name() {
			path, files = l.pathOf(dir), append(files, l.src[dir]...)
		}
		_, info := l.check(path, files)
		for _, f := range files {
			for _, d := range f.Decls {
				if isExample(d) {
					roots = append(roots, &decl{node: d, info: info})
				}
			}
		}
	}

	ifaces := interfaceMethods(l.pkgs)
	reached := map[*decl]bool{}
	reads, writes := map[token.Pos]bool{}, map[token.Pos]bool{}
	var queue []*decl
	reach := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	walk := func() {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			written := writtenFields(d.node)
			ast.Inspect(d.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := d.info.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if _, ok := l.dirOf(obj.Pkg().Path()); !ok {
					return true // positions outside the tree are in another file set
				}
				if written[id] {
					writes[obj.Pos()] = true
				} else {
					reads[obj.Pos()] = true
				}
				reach(decls[obj.Pos()])
				return true
			})
			// A reachable type reaches its methods of each interface it
			// implements, whether or not anything names them.
			if d.typ == nil {
				continue
			}
			nt := d.typ.Type().(*types.Named)
			for i := 0; i < nt.NumMethods(); i++ {
				m := nt.Method(i)
				if slices.ContainsFunc(ifaces[m.Id()], func(it *types.Interface) bool {
					return types.Implements(nt, it) || types.Implements(types.NewPointer(nt), it)
				}) {
					reach(decls[m.Pos()])
				}
			}
		}
	}
	for _, d := range roots {
		reach(d)
	}
	walk()
	var res deadCode
	for key := range allow {
		switch d := byKey[key]; {
		case d == nil:
			res.stale = append(res.stale, key+": no such declaration")
		case reached[d]:
			res.stale = append(res.stale, key+": reachable without the entry")
		default:
			reach(d)
		}
	}
	walk()

	for _, d := range decls {
		if !reached[d] {
			res.unreachable = append(res.unreachable, d.key)
		}
	}
	for pos, key := range fields {
		if writes[pos] && !reads[pos] {
			res.writeOnly = append(res.writeOnly, key)
		}
	}
	sort.Strings(res.unreachable)
	sort.Strings(res.writeOnly)
	sort.Strings(res.stale)
	return res
}

// interfaceMethods indexes by method Id every interface type declared at
// package level by pkgs or by a package they import, directly or not, and
// error: each interface is listed under the Id of each of its methods.
func interfaceMethods(pkgs map[string]*types.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(tn *types.TypeName) {
		if it, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				id := it.Method(i).Id()
				out[id] = append(out[id], it)
			}
		}
	}
	add(types.Universe.Lookup("error").(*types.TypeName))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// writtenFields is every field selector under n that a plain assignment
// or a keyed composite literal writes: x.f = v and T{f: v}. Any other use
// of a field, x.f++ and x.f += v among them, reads it.
func writtenFields(n ast.Node) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				break
			}
			for _, e := range n.Lhs {
				if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					w[se.Sel] = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = true
					}
				}
			}
		}
		return true
	})
	return w
}

// recvType is the type name of a method receiver: T for T, *T, T[P].
func recvType(fd *ast.FuncDecl) string {
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
	allow := readAllowlist(t, allowPath)
	res := findDeadCode(t, ".", "repro", allow)
	for _, key := range res.unreachable {
		t.Errorf("%s is unreachable from main, init, var initialisers and Examples: delete it, give it a caller, or add it with a reason to %s", key, allowPath)
	}
	for _, key := range res.writeOnly {
		t.Errorf("field %s is written but never read: delete it", key)
	}
	for _, s := range res.stale {
		t.Errorf("%s: stale entry %s", allowPath, s)
	}
}

func TestDeadCodeWalk(t *testing.T) {
	for _, tc := range []struct {
		name      string
		allow     []string
		dead      []string // must be reported unreachable
		live      []string // must not be
		writeOnly []string
		stale     []string
	}{
		{name: "a dead caller keeps nothing alive", dead: []string{"deadCaller", "callee"}},
		{name: "methods satisfying std interfaces stay",
			live: []string{"label.String", "transport.RoundTrip"}, dead: []string{"label.Unused"}},
		{name: "a method of an interface the type does not implement is reported",
			dead: []string{"shelf.Len"}},
		{name: "an allowlist root keeps its callees", allow: []string{"Kept"},
			live: []string{"Kept", "keptCallee"}, dead: []string{"deadCaller"}},
		{name: "a write-only field is reported", writeOnly: []string{"record.written"}},
		{name: "stale allowlist entries are reported", allow: []string{"missing", "start"},
			stale: []string{"missing: no such declaration", "start: reachable without the entry"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allow := map[string]string{}
			for _, key := range tc.allow {
				allow[key] = "fixture"
			}
			res := findDeadCode(t, "testdata/deadcode", "deadcode", allow)
			for _, key := range tc.dead {
				if !slices.Contains(res.unreachable, key) {
					t.Errorf("%s not reported unreachable; got %v", key, res.unreachable)
				}
			}
			for _, key := range tc.live {
				if slices.Contains(res.unreachable, key) {
					t.Errorf("%s reported unreachable", key)
				}
			}
			if tc.writeOnly != nil && !slices.Equal(res.writeOnly, tc.writeOnly) {
				t.Errorf("write-only fields %v, want %v", res.writeOnly, tc.writeOnly)
			}
			if !slices.Equal(res.stale, tc.stale) {
				t.Errorf("stale entries %v, want %v", res.stale, tc.stale)
			}
		})
	}
}

// ciFuzzLine is one entry of the fuzz-smoke list: "fuzz FuzzName ./pkg/".
var ciFuzzLine = regexp.MustCompile(`^\s*fuzz\s+(Fuzz\w+)\s+(\S+)\s*$`)

func TestFuzzTargetsInCI(t *testing.T) {
	const ciPath = ".github/workflows/ci.yml"
	want := map[string]bool{}
	for _, gf := range parseTree(t, ".", token.NewFileSet()) {
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
