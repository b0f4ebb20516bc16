package cloudburst

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"path"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// TestExportedSurface holds every exported identifier of the root package
// and of internal/... to a reference, resolved by type (go/types, the
// standard library only): a top-level name is referenced by a use of its
// object, a method by a selection of it, or by a selection of an interface
// or type-parameter constraint method it implements. A method's own
// receiver is not a use of its type, and a selector such as time.Duration
// is not a call of every method named Duration. String and Error always
// count (fmt and errors call them). Every .go file of the module counts,
// benchmark/, cmd/ and examples/ included; _test.go files count as test
// references. An identifier nothing references fails the test and should
// be deleted; the ones only tests reference are pinned here with the
// reason each stays, as TestConfigSurface pins config fields, so the
// test-only surface cannot grow unnoticed.
func TestExportedSurface(t *testing.T) {
	testOnly := map[string]string{
		"anna.Node.HasKey":              "the only view of which keys a storage node holds, and on which tier",
		"cache.Cache.SnapshotCount":     "the only view of the snapshot tables a causal session leaves (ROADMAP 12)",
		"cloudburst.SetDefaultTracing":  "runs whole figures traced in the zero-perturbation test",
		"executor.Thread.Completed":     "the only view of a thread's finished invocations, which its metrics publish",
		"lattice.GuardPayloads":         "the oracle of the payload immutability test",
		"lattice.VerifyPayloads":        "the oracle of the payload immutability test",
		"monitor.Monitor.KVSStats":      "the only view of the monitor's own Anna reads (the listing skip)",
		"monitor.Monitor.PinnedThreads": "the only view of which threads a function is pinned on",
		"scheduler.Scheduler.Inflight":  "the only view of the scheduler's tracked requests (ROADMAP 12)",
		"simnet.Network.NodeCount":      "the only view of whether crash and restart cycles retire endpoints",
		"trace.Collector.Stats":         "the only view of a collector's started, completed and dropped traces",
		"vtime.Chan.Len":                "the only view of the cache's write-back queue depth",
		"vtime.FreeList.Len":            "the only view of a free list's size (ROADMAP 12)",
	}

	unused, onlyTests, err := scanSurface(os.DirFS("."), "cloudburst")
	if err != nil {
		t.Fatal(err)
	}
	if len(unused) > 0 {
		t.Errorf("exported and referenced nowhere, delete them: %q", unused)
	}
	pinned := slices.Sorted(maps.Keys(testOnly))
	if !slices.Equal(onlyTests, pinned) {
		t.Errorf("test-only surface changed: new %q, gone %q", minus(onlyTests, pinned), minus(pinned, onlyTests))
	}
}

// TestSurfaceScanResolvesByType runs the scan over a small module held in
// memory. Solo is named only by its own method's receiver and by a test,
// Plan.Duration only shares its name with the time.Duration selector, and
// Square.Area is called only through the Shape interface: a walker that
// matches references by name counts the first two as used.
func TestSurfaceScanResolvesByType(t *testing.T) {
	src := func(s string) *fstest.MapFile { return &fstest.MapFile{Data: []byte(s)} }
	module := fstest.MapFS{
		"internal/a/a.go": src(`package a

import "time"

type Solo struct{ n int }

func (s *Solo) bump() { s.n++ }

type Plan struct{ d time.Duration }

func (p Plan) Duration() time.Duration { return p.d }

type Shape interface{ Area() int }

type Square struct{}

func (Square) Area() int { return 1 }

func Total(s Shape) int { return s.Area() }
`),
		"internal/a/a_test.go": src(`package a

import "testing"

func TestSolo(t *testing.T) {
	var s Solo
	s.bump()
}
`),
		"cmd/x/main.go": src(`package main

import (
	"time"

	"m/internal/a"
)

func main() {
	_ = a.Plan{}
	_ = time.Duration(a.Total(a.Square{}))
}
`),
	}
	unused, onlyTests, err := scanSurface(module, "m")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Solo"}; !slices.Equal(onlyTests, want) {
		t.Errorf("test-only = %q, want %q", onlyTests, want)
	}
	if want := []string{"a.Plan.Duration"}; !slices.Equal(unused, want) {
		t.Errorf("referenced nowhere = %q, want %q", unused, want)
	}
}

// scanSurface type-checks the module in fsys, whose module path is module
// (a directory with a go.mod of its own, such as benchmark/, is read as
// part of it), and returns the exported identifiers of its root package
// and of internal/... that no file references (unused) and those that
// only _test.go files reference (onlyTests), each sorted and named
// package.Name or package.Type.Method.
func scanSurface(fsys fs.FS, module string) (unused, onlyTests []string, err error) {
	s := &surfaceScan{
		fset:     token.NewFileSet(),
		module:   module,
		pkgs:     map[string]*pkgFiles{},
		checked:  map[string]*types.Package{},
		refs:     map[string]refs{},
		selected: map[ifaceMethod]bool{},
		receiver: map[*ast.Ident]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.parse(fsys); err != nil {
		return nil, nil, err
	}
	paths := slices.Sorted(maps.Keys(s.pkgs))
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return nil, nil, err
		}
	}
	for _, p := range paths {
		files := s.pkgs[p]
		variant := s.checked[p]
		if len(files.tests) > 0 {
			if variant, err = s.check(p, append(slices.Clip(files.files), files.tests...), s); err != nil {
				return nil, nil, err
			}
		}
		if len(files.xtests) > 0 {
			imp := importerFunc(func(q string) (*types.Package, error) {
				if q == p {
					return variant, nil
				}
				return s.Import(q)
			})
			if _, err := s.check(p+"_test", files.xtests, imp); err != nil {
				return nil, nil, err
			}
		}
	}

	for _, p := range paths {
		if p != module && !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		pkg := s.checked[p]
		short := path.Base(p)
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			classify(short+"."+name, s.refs[objKey(obj)], &unused, &onlyTests)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					classify(short+"."+name+"."+m.Name(), s.methodRefs(named, m), &unused, &onlyTests)
				}
			}
		}
	}
	slices.Sort(unused)
	slices.Sort(onlyTests)
	return unused, onlyTests, nil
}

// surfaceScan is one run of scanSurface.
type surfaceScan struct {
	fset    *token.FileSet
	module  string
	pkgs    map[string]*pkgFiles      // import path → its files
	checked map[string]*types.Package // import path → the package without its tests; nil while being checked
	std     types.Importer            // everything outside the module, type-checked from source
	refs    map[string]refs           // by objKey
	// selected is every interface or constraint method selected, and
	// receiver every identifier inside a method's receiver.
	selected map[ifaceMethod]bool
	receiver map[*ast.Ident]bool
}

// pkgFiles is one directory's files: the package, its in-package tests
// and its external (_test package) tests.
type pkgFiles struct {
	files, tests, xtests []*ast.File
}

// refs is where an identifier is referenced from: non-test code, tests.
type refs struct{ code, test bool }

func (r *refs) mark(test bool) {
	if test {
		r.test = true
	} else {
		r.code = true
	}
}

// ifaceMethod is a selected interface method, from a test file or not.
type ifaceMethod struct {
	iface *types.Interface
	name  string
	test  bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// parse reads every .go file of fsys that the default build context
// selects, skipping directories named testdata or starting with . or _.
func (s *surfaceScan) parse(fsys fs.FS) error {
	ctxt := build.Default
	ctxt.JoinPath = path.Join
	ctxt.OpenFile = func(p string) (io.ReadCloser, error) { return fsys.Open(p) }
	return fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		dir, name := path.Split(p)
		dir = path.Clean(dir)
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(s.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		importPath := path.Join(s.module, dir)
		files := s.pkgs[importPath]
		if files == nil {
			files = &pkgFiles{}
			s.pkgs[importPath] = files
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			files.files = append(files.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			files.xtests = append(files.xtests, f)
		default:
			files.tests = append(files.tests, f)
		}
		return nil
	})
}

// Import returns the module's package at path without its tests, checking
// it on first use, and hands any other path to the standard importer.
func (s *surfaceScan) Import(p string) (*types.Package, error) {
	if p != s.module && !strings.HasPrefix(p, s.module+"/") {
		return s.std.Import(p)
	}
	if pkg, ok := s.checked[p]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg, nil
	}
	files := s.pkgs[p]
	if files == nil || len(files.files) == 0 {
		return nil, fmt.Errorf("no package %s in the module", p)
	}
	s.checked[p] = nil
	pkg, err := s.check(p, files.files, s)
	s.checked[p] = pkg
	return pkg, err
}

// check type-checks files as the package at path and records what they
// reference. A test variant re-checks the package's own files too, which
// only records their references again.
func (s *surfaceScan) check(p string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, _ := conf.Check(p, s.fset, files, info)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						s.receiver[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if s.receiver[id] {
			continue
		}
		test := strings.HasSuffix(s.fset.Position(id.Pos()).Filename, "_test.go")
		if f, ok := obj.(*types.Func); ok {
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					s.selected[ifaceMethod{iface, f.Name(), test}] = true
				}
			}
		}
		if key := objKey(obj); key != "" {
			r := s.refs[key]
			r.mark(test)
			s.refs[key] = r
		}
	}
	return pkg, nil
}

// methodRefs is where method m of named is referenced from: selected
// directly, or through an interface or constraint method it implements.
func (s *surfaceScan) methodRefs(named *types.Named, m *types.Func) refs {
	r := s.refs[objKey(m)]
	if m.Name() == "String" || m.Name() == "Error" {
		r.code = true
	}
	for sel := range s.selected {
		if sel.name == m.Name() && (types.Implements(named, sel.iface) || types.Implements(types.NewPointer(named), sel.iface)) {
			r.mark(sel.test)
		}
	}
	return r
}

// classify appends id to unused or onlyTests by where it is referenced.
func classify(id string, r refs, unused, onlyTests *[]string) {
	switch {
	case r.code:
	case r.test:
		*onlyTests = append(*onlyTests, id)
	default:
		*unused = append(*unused, id)
	}
}

// objKey names a package-level object or a method by its package path,
// receiver type and name; it is "" for anything else (fields, locals).
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return ""
			}
			return o.Pkg().Path() + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
