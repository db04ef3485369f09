package smrp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
	"graph.SetSPFDelta":                   "test hook that turns the SPF cache's delta repair off",
	"graph.Sweep.Relabels":                "core's prune oracle asserts coverage of the label-correcting re-queue through it",
	"runner.MapSeq":                       "the sequential reference that runner.Map is tested against",
	"runner.TrialError.Unwrap":            "errors.Is and errors.As call it through the unwrap interface",
}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is named nowhere in the non-test code
// of the module (root, cmd/, examples/, internal/) or of the nested bench/
// module. Such a function exists only for tests: delete it and rewrite its
// tests on the API that remains, move it into the package's export_test.go,
// or, when another package's test needs internal state that no production
// accessor exposes, allowlist it above with a reason.
//
// The match is by name, not by type: a method whose name another function
// or method uses in non-test code (a test-only Summary.Merge beside a used
// Sample.Merge) passes unnoticed, and has to be found by hand.
func TestNoTestOnlyExports(t *testing.T) {
	used := make(map[string]bool)
	type decl struct{ key, name, pos string }
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !internal || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fn.Recv != nil {
				key += recvName(fn.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, fn.Name.Name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	var bad []string
	for _, d := range decls {
		seen[d.key] = true
		if !used[d.name] && testOnlyAllowed[d.key] == "" {
			bad = append(bad, d.pos+": "+d.key)
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

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
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
			return "?"
		}
	}
}
