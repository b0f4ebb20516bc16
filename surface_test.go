package cloudburst

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExportedSurface holds every exported identifier of internal/... to
// a reference: a top-level name is referenced by a selector through an
// import of its package or by a bare use inside it, a method by any
// selector of its name (syntax only, so a method shares references with
// every method of that name). Every .go file of the module counts,
// benchmark/, cmd/ and examples/ included; _test.go files count as test
// references. An identifier nothing references fails the test and should
// be deleted; the ones only tests reference are pinned here, as
// TestConfigSurface pins config fields, so the test-only surface cannot
// grow unnoticed: move such an identifier into its test or delete it.
func TestExportedSurface(t *testing.T) {
	testOnly := []string{
		"anna.Node.HasKey",
		"cache.Cache.SnapshotCount",
		"executor.Ctx.RecvWait",
		"executor.Registry.Names",
		"lattice.GuardPayloads",
		"lattice.VerifyPayloads",
		"monitor.Monitor.PinnedThreads",
		"scheduler.Scheduler.Inflight",
		"simnet.Network.NodeCount",
		"simnet.Network.SetLink",
		"trace.AggregateSnapshot",
		"traffic.Histogram.Mean",
		"traffic.NewDiurnal",
		"traffic.NewSpike",
		"vtime.Kernel.YieldNow",
		"vtime.Mutex.TryLock",
		"vtime.Time.Milliseconds",
	}

	var decls []string
	byPkg := map[string]map[string]string{} // package path → top-level name → identifier
	methods := map[string][]string{}        // method name → identifiers
	type file struct {
		pkg  string // the directory's import path
		test bool
		ast  *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{pkg: path.Join("cloudburst", filepath.ToSlash(filepath.Dir(p))), test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "cloudburst/internal/") {
			continue
		}
		short := path.Base(f.pkg)
		declare := func(name, id string) {
			decls = append(decls, id)
			if byPkg[f.pkg] == nil {
				byPkg[f.pkg] = map[string]string{}
			}
			byPkg[f.pkg][name] = id
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					declare(d.Name.Name, short+"."+d.Name.Name)
					continue
				}
				if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
					id := short + "." + recv + "." + d.Name.Name
					decls = append(decls, id)
					methods[d.Name.Name] = append(methods[d.Name.Name], id)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							declare(s.Name.Name, short+"."+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								declare(n.Name, short+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}

	refs := map[string]map[bool]bool{} // identifier → from a test file?
	ref := func(id string, test bool) {
		if refs[id] == nil {
			refs[id] = map[bool]bool{}
		}
		refs[id][test] = true
	}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		own := byPkg[f.pkg]
		declared := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[s.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[n] = true
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				for _, id := range methods[n.Sel.Name] {
					ref(id, f.test)
				}
				if x, ok := n.X.(*ast.Ident); ok {
					if id, ok := byPkg[imports[x.Name]][n.Sel.Name]; ok {
						ref(id, f.test)
					}
				}
			case *ast.Ident:
				if id, ok := own[n.Name]; ok && !declared[n] {
					ref(id, f.test)
				}
			}
			return true
		})
	}

	var unused, onlyTests []string
	for _, id := range decls {
		switch {
		case refs[id][false]:
		case refs[id][true]:
			onlyTests = append(onlyTests, id)
		default:
			unused = append(unused, id)
		}
	}
	slices.Sort(unused)
	slices.Sort(onlyTests)
	if len(unused) > 0 {
		t.Errorf("exported and referenced nowhere, delete them: %q", unused)
	}
	if !slices.Equal(onlyTests, testOnly) {
		t.Errorf("test-only surface changed: new %q, gone %q", minus(onlyTests, testOnly), minus(testOnly, onlyTests))
	}
}

// receiverName is the type name of a method receiver expression.
func receiverName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return receiverName(x.X)
	case *ast.IndexExpr:
		return receiverName(x.X)
	case *ast.IndexListExpr:
		return receiverName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
