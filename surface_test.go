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
		"trace.Collector.Stats":         "the only view of a collector's completed and dropped traces",
		"vtime.Chan.Len":                "the only view of the cache's write-back queue depth",
		"vtime.FreeList.Len":            "the only view of a free list's size (ROADMAP 12)",
	}

	found, err := scanSurface(os.DirFS("."), "cloudburst")
	if err != nil {
		t.Fatal(err)
	}
	if len(found.unused) > 0 {
		t.Errorf("exported and referenced nowhere, delete them: %q", found.unused)
	}
	pinned := slices.Sorted(maps.Keys(testOnly))
	if !slices.Equal(found.onlyTests, pinned) {
		t.Errorf("test-only surface changed: new %q, gone %q", minus(found.onlyTests, pinned), minus(pinned, found.onlyTests))
	}
}

// TestFieldsRead holds every struct field declared outside benchmark/ to
// a read, found by the same scan: a field that is only written (assigned,
// incremented, appended to itself, set in a composite literal) costs work
// on every write and shows nothing, so it fails the test and should be
// deleted with its writes. The fields only
// tests read, and the ones nothing reads that must stay, are pinned here
// with the reason each stays.
func TestFieldsRead(t *testing.T) {
	testRead := map[string]string{
		"audit.Report.Serial":          "the rw-antidependency detector's count, which the transactional audit tests assert",
		"audit.Report.Torn":            "the fractured-read detector's count, which the transactional audit tests assert",
		"bench.ChaosCell.Anomalies":    "each chaos cell's audit, which TestChaosMatrix checks (ROADMAP 20)",
		"bench.ChaosCell.GhostKeys":    "TestChaosMatrix's oracle for the generation reaper: dead-generation registry keys must be 0",
		"bench.ChaosCell.Reads":        "TestChaosMatrix's check that the audit saw the cell's traffic",
		"bench.ChaosCell.Writes":       "TestChaosMatrix's check that the audit saw the cell's traffic",
		"bench.ChaosCell.ledger":       "TestChaosMatrix's bank ledger oracle: each balance is the transfers the client saw succeed",
		"bench.Fig13Point.Issued":      "the smoke test's check that the open-loop pool issued requests",
		"cache.Stats.Prefetches":       "the only view of how many grouped warm fills a cache issued",
		"executor.TraceEvent.Ver":      "the only view of which version an audited read saw (the reference fan-out order tests)",
		"simnet.Network.MessagesDropt": "the only view of what a link fault dropped",
		"simnet.Network.MessagesDuped": "the only view of what a link fault duplicated",
		"trace.Stats.TracesCompleted":  "the only view of a collector's completed traces",
		"trace.Stats.TracesDropped":    "the only view of a collector's dropped traces",
		"trace.Summary.Attempts":       "the only view of how many attempts a summarized request took",
	}
	unread := map[string]string{
		"cache.Cache.vm": "cache.New's vm parameter fills it, and benchmark/probes.go calls cache.New, so both stay (ROADMAP 11)",
	}

	found, err := scanSurface(os.DirFS("."), "cloudburst")
	if err != nil {
		t.Fatal(err)
	}
	exempt := slices.Sorted(maps.Keys(unread))
	if !slices.Equal(found.unreadFields, exempt) {
		t.Errorf("fields written but read nowhere, delete them: %q; no longer unread, unpin them: %q", minus(found.unreadFields, exempt), minus(exempt, found.unreadFields))
	}
	pinned := slices.Sorted(maps.Keys(testRead))
	if !slices.Equal(found.testReadFields, pinned) {
		t.Errorf("test-read fields changed: new %q, gone %q", minus(found.testReadFields, pinned), minus(pinned, found.testReadFields))
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
	found, err := scanSurface(module, "m")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.Solo"}; !slices.Equal(found.onlyTests, want) {
		t.Errorf("test-only = %q, want %q", found.onlyTests, want)
	}
	if want := []string{"a.Plan.Duration"}; !slices.Equal(found.unused, want) {
		t.Errorf("referenced nowhere = %q, want %q", found.unused, want)
	}
}

// TestFieldScanSeesWrites runs the field check over a small module held
// in memory: each of Counter's unread fields is only written, in one of
// the ways a write is spelt, and each struct beside it is read whole by
// one rule. A map keyed by a pointer compares addresses, so it reads
// nothing of Ptr.
func TestFieldScanSeesWrites(t *testing.T) {
	module := fstest.MapFS{
		"internal/a/a.go": &fstest.MapFile{Data: []byte(`package a

import "fmt"

type Counter struct {
	assigned, bumped, added, keyed int
	log                            []int
	inner                          Inner
	read, tested                   int
	tagged                         int ` + "`json:\"t\"`" + `
	elems                          []int
}

type Inner struct{ n int }

type (
	From    struct{ a int }
	To      struct{ a int }
	Cmp     struct{ a int }
	Key     struct{ a int }
	Printed struct{ a int }
	Ptr     struct{ a int }
)

func Use(c *Counter, f From, x, y Cmp, p *Printed) (int, *To, bool, string, map[Key]bool, map[*Ptr]bool) {
	*c = Counter{keyed: 1}
	c.assigned = 1
	c.bumped++
	c.added += 2
	c.log = append(c.log, 1)
	c.inner.n = 1
	c.elems[0] = 1
	return c.read, (*To)(&f), x == y, fmt.Sprint(p), nil, nil
}
`)},
		"internal/a/a_test.go": &fstest.MapFile{Data: []byte(`package a

func tested(c *Counter) int { return c.tested }
`)},
	}
	found, err := scanSurface(module, "m")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.Counter.added", "a.Counter.assigned", "a.Counter.bumped", "a.Counter.inner", "a.Counter.keyed", "a.Counter.log", "a.Inner.n", "a.Ptr.a"}
	if !slices.Equal(found.unreadFields, want) {
		t.Errorf("unread fields = %q, want %q", found.unreadFields, want)
	}
	if want := []string{"a.Counter.tested"}; !slices.Equal(found.testReadFields, want) {
		t.Errorf("test-read fields = %q, want %q", found.testReadFields, want)
	}
}

// surface is what scanSurface finds, each list sorted. unused and
// onlyTests are the exported identifiers of the module's root package and
// of internal/... that no file references, or that only _test.go files
// reference, named package.Name or package.Type.Method. unreadFields and
// testReadFields are the struct fields declared in the non-test files of
// every package but benchmark/'s (a module of its own) that no file
// reads, or that only _test.go files read, named package.Type.field
// (package.Type.field.inner inside an anonymous struct,
// package.file:line.field for a struct type without a name; package is
// the directory's name).
type surface struct {
	unused, onlyTests            []string
	unreadFields, testReadFields []string
}

// scanSurface type-checks the module in fsys, whose module path is module
// (a directory with a go.mod of its own, such as benchmark/, is read as
// part of it), and reports its unreferenced surface and unread fields.
//
// A field is written, not read, where it is the left-hand side of an
// assignment (compound operators and range clauses included, and
// through struct values and arrays: x.f.g = v writes g and f, and so does
// x.f[i] = v when f is an array), the operand of ++ or --, the x.f inside
// x.f = append(x.f, ...), or a key of a composite literal. An element
// assignment to a slice or map reads the field, whose elements may be
// shared. Every other use of a field reads it, and so does a use of a
// field it promotes, and a field with a struct tag is read. A struct
// converted to another struct type, compared or used as a map key has
// every field read, through struct fields and arrays; passed to fmt, log
// or testing, also through the pointer, slice or map holding it; passed
// to reflect or encoding/..., through every pointer, slice and map.
// Embedded and blank fields are not checked.
func scanSurface(fsys fs.FS, module string) (found surface, err error) {
	s := &surfaceScan{
		fset:      token.NewFileSet(),
		module:    module,
		pkgs:      map[string]*pkgFiles{},
		checked:   map[string]*types.Package{},
		refs:      map[string]refs{},
		selected:  map[ifaceMethod]bool{},
		receiver:  map[*ast.Ident]bool{},
		fieldRefs: map[token.Pos]refs{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.parse(fsys); err != nil {
		return found, err
	}
	paths := slices.Sorted(maps.Keys(s.pkgs))
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return found, err
		}
	}
	for _, p := range paths {
		files := s.pkgs[p]
		variant := s.checked[p]
		if len(files.tests) > 0 {
			if variant, err = s.check(p, append(slices.Clip(files.files), files.tests...), s); err != nil {
				return found, err
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
				return found, err
			}
		}
	}

	for _, p := range paths {
		short := path.Base(p)
		if !strings.HasPrefix(p, module+"/benchmark") {
			for _, f := range s.pkgs[p].files {
				for pos, name := range declaredFields(s.fset, short, f) {
					classify(name, s.fieldRefs[pos], &found.unreadFields, &found.testReadFields)
				}
			}
		}
		if p != module && !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		pkg := s.checked[p]
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			classify(short+"."+name, s.refs[objKey(obj)], &found.unused, &found.onlyTests)
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
					classify(short+"."+name+"."+m.Name(), s.methodRefs(named, m), &found.unused, &found.onlyTests)
				}
			}
		}
	}
	for _, l := range []*[]string{&found.unused, &found.onlyTests, &found.unreadFields, &found.testReadFields} {
		slices.Sort(*l)
	}
	return found, nil
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
	// fieldRefs is where each field, by the position of its name in its
	// declaration, is read from.
	fieldRefs map[token.Pos]refs
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
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Defs:       map[*ast.Ident]types.Object{},
	}
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
		test := s.inTest(id.Pos())
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
	s.fieldReads(files, info)
	return pkg, nil
}

// inTest reports whether pos lies in a _test.go file.
func (s *surfaceScan) inTest(pos token.Pos) bool {
	return strings.HasSuffix(s.fset.Position(pos).Filename, "_test.go")
}

// fieldReads records the fields that files read, by the rules
// scanSurface states; info is their type-check.
func (s *surfaceScan) fieldReads(files []*ast.File, info *types.Info) {
	test := false // whether the read being recorded is in a test file
	read := func(v *types.Var) {
		r := s.fieldRefs[v.Origin().Pos()]
		r.mark(test)
		s.fieldRefs[v.Origin().Pos()] = r
	}
	// readAll reads every field of a value of type t: through struct
	// fields and array elements, and through pointers, slices and maps
	// too if deep.
	type visit struct {
		t          types.Type
		deep, test bool
	}
	seen := map[visit]bool{}
	var readAll func(t types.Type, deep bool)
	readAll = func(t types.Type, deep bool) {
		if t == nil || seen[visit{t, deep, test}] {
			return
		}
		seen[visit{t, deep, test}] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for v := range u.Fields() {
				read(v)
				readAll(v.Type(), deep)
			}
		case *types.Array:
			readAll(u.Elem(), deep)
		case *types.Pointer:
			if deep {
				readAll(u.Elem(), deep)
			}
		case *types.Slice:
			if deep {
				readAll(u.Elem(), deep)
			}
		case *types.Map:
			if deep {
				readAll(u.Key(), deep)
				readAll(u.Elem(), deep)
			}
		}
	}
	// printed reads what fmt prints of a value of type t: the struct
	// behind a pointer, and the elements of a slice or map, at the top.
	printed := func(t types.Type) {
		for t != nil {
			switch u := t.Underlying().(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Map:
				readAll(u.Key(), false)
				t = u.Elem()
				continue
			}
			break
		}
		readAll(t, false)
	}
	typeOf := func(e ast.Expr) types.Type { return info.Types[e].Type }

	// written holds the selectors of fields that are only written.
	written := map[*ast.Ident]bool{}
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				written[e.Sel] = true
				if _, ptr := typeOf(e.X).Underlying().(*types.Pointer); !ptr {
					write(e.X)
				}
			}
		case *ast.IndexExpr:
			if _, ok := typeOf(e.X).Underlying().(*types.Array); ok {
				write(e.X)
			}
		}
	}
	builtin := func(call *ast.CallExpr, name string) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == name
	}
	inspect := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				write(lhs)
				if len(n.Rhs) != len(n.Lhs) {
					continue
				}
				if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && builtin(call, "append") &&
					len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
					write(call.Args[0])
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						write(e)
					}
				}
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.CompositeLit:
			if _, ok := typeOf(n).Underlying().(*types.Struct); ok {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							written[id] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 && !types.Identical(tv.Type, typeOf(n.Args[0])) {
					readAll(elem(tv.Type), false)
					readAll(elem(typeOf(n.Args[0])), false)
				}
				break
			}
			fn := calledFunc(n, info)
			if fn == nil || fn.Pkg() == nil {
				break
			}
			switch p := fn.Pkg().Path(); {
			case p == "reflect" || strings.HasPrefix(p, "encoding/"):
				for _, a := range n.Args {
					readAll(typeOf(a), true)
				}
			case p == "fmt" || p == "log" || p == "testing":
				for _, a := range n.Args {
					printed(typeOf(a))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				readAll(typeOf(n.X), false)
				readAll(typeOf(n.Y), false)
			}
		case *ast.MapType:
			readAll(typeOf(n.Key), false)
		case *ast.Field:
			if n.Tag != nil {
				for _, id := range n.Names {
					if v, ok := info.Defs[id].(*types.Var); ok {
						read(v)
					}
				}
			}
		}
		return true
	}
	for _, f := range files {
		test = s.inTest(f.Pos())
		ast.Inspect(f, inspect)
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			test = s.inTest(id.Pos())
			read(v)
		}
	}
	for e, sel := range info.Selections {
		test = s.inTest(e.Pos())
		t := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			read(st.Field(i))
			t = st.Field(i).Type()
		}
	}
}

// elem is the type a pointer type points to, or t itself.
func elem(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// calledFunc is the function or method call calls, or nil.
func calledFunc(call *ast.CallExpr, info *types.Info) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// declaredFields names the fields of every struct type declared in f,
// keyed by the position of each field's name.
func declaredFields(fset *token.FileSet, short string, f *ast.File) map[token.Pos]string {
	names := map[token.Pos]string{}
	done := map[*ast.StructType]bool{}
	var declare func(prefix string, st *ast.StructType)
	declare = func(prefix string, st *ast.StructType) {
		done[st] = true
		for _, field := range st.Fields.List {
			inner := field.Type
			for {
				switch t := inner.(type) {
				case *ast.StarExpr:
					inner = t.X
					continue
				case *ast.ArrayType:
					inner = t.Elt
					continue
				case *ast.MapType:
					inner = t.Value
					continue
				}
				break
			}
			for _, id := range field.Names {
				if id.Name == "_" {
					continue
				}
				names[id.Pos()] = prefix + "." + id.Name
				if st, ok := inner.(*ast.StructType); ok {
					declare(prefix+"."+id.Name, st)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				declare(short+"."+n.Name.Name, st)
			}
		case *ast.StructType:
			if !done[n] {
				p := fset.Position(n.Pos())
				declare(fmt.Sprintf("%s.%s:%d", short, path.Base(p.Filename), p.Line), n)
			}
		}
		return true
	})
	return names
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
