package smrp_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyAllowed lists the exported functions and methods under internal/
// that may stay although no non-test code calls them, keyed
// "pkg.Recv.Name" ("pkg.Name" for a function), each with its reason.
var testOnlyAllowed = map[string]string{
	"eventsim.Network.Send":               "the DES's messages will drive the protocol handlers through it",
	"eventsim.Network.LinkUp":             "link repair in the message-level DES will schedule through it",
	"eventsim.Event.Cancel":               "timers the protocol handlers arm will be cancelled through it",
	"protocol.driver.LastRefresh":         "the soft-state rework of the DES replaces it",
	"protocol.driver.ScheduleLeave":       "the soft-state rework of the DES replaces it",
	"protocol.SMRPInstance.Expired":       "the soft-state rework of the DES replaces it",
	"protocol.SMRPInstance.SilenceMember": "the soft-state rework of the DES replaces it",
	"graph.Sweep.Relabels":                "core's prune oracle asserts coverage of the label-correcting re-queue through it",
	"runner.MapSeq":                       "the sequential reference that runner.Map is tested against",
	"runner.TrialError.Unwrap":            "errors.Is and errors.As call it through the unwrap interface",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is used nowhere in the non-test code of
// the module (root, cmd/, examples/, internal/) or of the nested bench/
// module. Such a function exists only for tests: delete it and rewrite its
// tests on the API that remains, move it into the package's export_test.go,
// or, when another package's test needs internal state that no production
// accessor exposes, allowlist it above with a reason.
//
// Uses are resolved by go/types, so a method does not pass because some
// other method shares its name. A method also counts as used when non-test
// code calls it through an interface declared in the module — a recovery
// strategy, a study report, the trace tool's protocol arm, a generic
// constraint — on a type that declares or embeds it, and when it is an
// Error or String method, which fmt and errors call on whatever they are
// handed. Fitting a standard-library interface is not enough: nothing says
// the value ever reaches the code that calls through it.
func TestNoTestOnlyExports(t *testing.T) {
	l, paths := loadModule(t)

	used := make(map[*types.Func]bool)
	viaIface := make(map[*types.Func]bool) // interface methods of the module non-test code calls
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && fn.Pkg() != nil && l.pkgs[fn.Pkg().Path()] != nil {
			viaIface[fn] = true
		}
	}
	// What such a call reaches is used too: the method of every module type
	// that implements the interface, declared on the type or promoted from
	// one it embeds.
	var concrete []types.Type
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					concrete = append(concrete, n, types.NewPointer(n))
				}
			}
		}
	}
	for m := range viaIface {
		recv := m.Type().(*types.Signature).Recv().Type()
		for _, c := range concrete {
			iface := recv
			if n, ok := recv.(*types.Named); ok && n.TypeParams().Len() == 1 {
				// A self-referential constraint such as pqueue.Ordered[E].
				var err error
				if iface, err = types.Instantiate(nil, n, []types.Type{c}, true); err != nil {
					continue
				}
			}
			if types.Implements(c, iface.Underlying().(*types.Interface)) {
				if obj, _, _ := types.LookupFieldOrMethod(c, false, m.Pkg(), m.Name()); obj != nil {
					if fn, ok := obj.(*types.Func); ok {
						used[fn.Origin()] = true
					}
				}
			}
		}
	}

	seen := make(map[string]bool)
	var bad []string
	for _, path := range paths {
		if !strings.HasPrefix(path, "smrp/internal/") {
			continue
		}
		pkg := l.pkgs[path]
		check := func(fn *types.Func, key string) {
			seen[key] = true
			method := fn.Type().(*types.Signature).Recv() != nil
			if !fn.Exported() || used[fn] || testOnlyAllowed[key] != "" || method && (fn.Name() == "String" || fn.Name() == "Error") {
				return
			}
			bad = append(bad, l.fset.Position(fn.Pos()).String()+": "+key)
		}
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				check(obj, pkg.Name()+"."+name)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					check(m, pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: only tests call it; delete it, move it into export_test.go, or allowlist it with a reason", b)
	}
	for key := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported declaration under internal/; remove it", key)
		}
	}
}

var (
	moduleOnce  sync.Once
	module      *loader
	modulePaths []string // every loaded import path, sorted
	moduleErr   error
)

// loadModule type-checks the non-test code of every package in the module
// (root, cmd/, examples/, internal/) and in the nested bench/ module, once
// per test binary, for the tests that read the whole program.
func loadModule(t *testing.T) (*loader, []string) {
	t.Helper()
	moduleOnce.Do(func() {
		l := newLoader()
		if moduleErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
			if slices.ContainsFunc(matches, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
				l.dirs[pathpkg.Join("smrp", filepath.ToSlash(path))] = path
			}
			return nil
		}); moduleErr != nil {
			return
		}
		for path := range l.dirs {
			modulePaths = append(modulePaths, path)
		}
		sort.Strings(modulePaths)
		for _, path := range modulePaths {
			if _, err := l.Import(path); err != nil {
				moduleErr = fmt.Errorf("type-check %s: %w", path, err)
				return
			}
		}
		module = l
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module, modulePaths
}

// loader type-checks the module's packages, non-test files only, each once,
// resolving imports among them to its own results and every other import
// (the standard library) from source, so all uses meet one set of objects.
type loader struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File // import path → its parsed non-test files
	info  *types.Info
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:  make(map[string]string),
		pkgs:  make(map[string]*types.Package),
		files: make(map[string][]*ast.File),
		info: &types.Info{
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
	}
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	src, ok := l.dirs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	abs, err := filepath.Abs(src)
	if err != nil {
		return nil, err
	}
	bp, err := build.ImportDir(abs, 0) // GoFiles: build constraints applied, tests left out
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files
	return pkg, nil
}

// mapRangeAllowed lists every function in the non-test code of the module
// (root, cmd/, examples/, internal/) that ranges over a map, keyed
// "pkg.Func" or "pkg.Recv.Method" ("cmd/name.Func" and "examples/name.Func"
// for the commands), each with why nothing it returns or prints follows
// Go's random iteration order. One entry covers every map loop in its
// function.
var mapRangeAllowed = map[string]string{
	"cmd/smrp-trace.printDelivery":      "collected and sorted by member",
	"examples/reshaping.printSHR":       "collected and sorted by node",
	"core.Session.beginHeal":            "collected into the todo list, which is sorted",
	"core.Session.Parked":               "collected and sorted",
	"detour.Strategy.Precompute":        "deletes only",
	"detour.Strategy.StateBytes":        "integer sum",
	"faultisolation.Isolate":            "min over keys: the error names the lowest non-member",
	"graph.Mask.Each":                   "edges in map order, as its doc says: failure.DeadRoots sorts what it collects and core's tree view only blocks and unblocks",
	"graph.Mask.Clone":                  "copies into a map",
	"graph.Mask.Union":                  "blocks edges in a mask: set union",
	"hierarchy.NLevelSession.Members":   "collected and sorted",
	"hierarchy.NLevelSession.Parked":    "collected and sorted",
	"protect.DependableSession.Members": "collected and sorted",
	"protocol.driver.Restorations":      "collected and sorted by member",
	"protocol.driver.Multicast":         "deletes only",
	"protocol.SMRPInstance.land":        "max over values: the latest memoised landing m waits on",
	"server.hub.publish":                "a non-blocking send to each subscriber's own channel",
	"server.hub.close":                  "closes and deletes every subscriber",
	"server.Registry.List":              "collected and sorted by ID",
	"server.Registry.Close":             "collected; every actor is closed, then every one awaited",
	"trace.Log.Summary":                 "collected and sorted by category",
}

// TestMapRangesAllowlisted fails when non-test code ranges over a map in a
// function mapRangeAllowed does not name, and when an entry names a
// function that no longer does. Go hands a map's entries out in a random
// order, so a loop whose output follows that order (a float sum, a print,
// an append kept unsorted) makes one input give different results. A new
// map loop needs a stated reason why its result is order-free.
func TestMapRangesAllowlisted(t *testing.T) {
	l, paths := loadModule(t)
	seen := make(map[string]bool)
	var bad []string
	for _, path := range paths {
		if strings.HasPrefix(path, "smrp/bench") {
			continue
		}
		prefix := strings.TrimPrefix(strings.TrimPrefix(path, "smrp/internal/"), "smrp/")
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				key := prefix + "." + declName(d)
				ast.Inspect(d, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := l.info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
						return true
					}
					if !seen[key] && mapRangeAllowed[key] == "" {
						bad = append(bad, l.fset.Position(rs.Pos()).String()+": "+key)
					}
					seen[key] = true
					return true
				})
			}
		}
	}
	for _, b := range bad {
		t.Errorf("%s ranges over a map: make its result order-free and allowlist it with the reason, or iterate in a sorted order", b)
	}
	for key := range mapRangeAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %s names no function that ranges over a map; remove it", key)
		}
	}
}

// declName names a top-level declaration for mapRangeAllowed: "Func" or
// "Recv.Method"; package-level initializers run as "init".
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return "init"
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if generic, ok := recv.(*ast.IndexExpr); ok { // a single type parameter, as pqueue.Heap[E]
		recv = generic.X
	}
	return recv.(*ast.Ident).Name + "." + fd.Name.Name
}
