package smrp_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPI is the API-compatibility gate: it renders the exported
// surface of the root smrp package (every exported func, type, const and var
// declaration, doc comments stripped) and compares it against the blessed
// baseline in api/smrp.txt. CI runs this test, so an undeclared breaking
// change to the public API fails the build.
//
// To bless an intentional API change, regenerate the baseline:
//
//	SMRP_UPDATE_API=1 go test -run TestPublicAPI .
//
// and commit api/smrp.txt together with the change.
func TestPublicAPI(t *testing.T) {
	got, err := renderAPI(".")
	if err != nil {
		t.Fatalf("render public API: %v", err)
	}

	// The root is the protocol library: the study harness is run through
	// smrp-sim -fig, so no declaration may reach into it.
	for _, line := range strings.Split(got, "\n") {
		if harnessRef.MatchString(line) {
			t.Errorf("root API exposes the study harness: %s", line)
		}
	}

	const baseline = "api/smrp.txt"
	if os.Getenv("SMRP_UPDATE_API") != "" {
		if err := os.MkdirAll(filepath.Dir(baseline), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baseline, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d declarations)", baseline, strings.Count(got, "\n"))
		return
	}

	wantBytes, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatalf("missing API baseline %s (regenerate with SMRP_UPDATE_API=1 go test -run TestPublicAPI .): %v", baseline, err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}

	gotSet := splitDecls(got)
	wantSet := splitDecls(want)
	for d := range wantSet {
		if !gotSet[d] {
			t.Errorf("removed or changed (breaking):\n%s", d)
		}
	}
	for d := range gotSet {
		if !wantSet[d] {
			t.Errorf("added or changed (bless with SMRP_UPDATE_API=1 if intentional):\n%s", d)
		}
	}
	t.Errorf("public API differs from %s; if the change is intentional, regenerate with SMRP_UPDATE_API=1 go test -run TestPublicAPI .", baseline)
}

// harnessRef matches a reference to the study harness's packages.
var harnessRef = regexp.MustCompile(`\b(experiment|runner|metrics)\.`)

// splitDecls breaks a rendered API file into its blank-line-separated
// declarations.
func splitDecls(s string) map[string]bool {
	out := make(map[string]bool)
	for _, d := range strings.Split(s, "\n\n") {
		if d = strings.TrimSpace(d); d != "" {
			out[d] = true
		}
	}
	return out
}

// renderAPI parses the non-test Go files of dir and prints every exported
// top-level declaration, doc comments and function bodies stripped, sorted
// for stability.
func renderAPI(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return "", err
	}
	pkg, ok := pkgs["smrp"]
	if !ok {
		return "", fmt.Errorf("package smrp not found in %s", dir)
	}

	var decls []string
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			for _, rendered := range renderDecl(fset, d) {
				decls = append(decls, rendered)
			}
		}
	}
	sort.Strings(decls)
	return strings.Join(decls, "\n\n") + "\n", nil
}

// renderDecl returns the exported portion of one top-level declaration,
// normalized: no doc comments, no bodies, one spec per entry for grouped
// const/var/type declarations.
func renderDecl(fset *token.FileSet, d ast.Decl) []string {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil || !d.Name.IsExported() {
			return nil // root package has no exported methods of its own
		}
		fn := *d
		fn.Doc = nil
		fn.Body = nil
		return []string{printNode(fset, &fn)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				ts := *s
				ts.Doc, ts.Comment = nil, nil
				out = append(out, "type "+printNode(fset, &ts))
			case *ast.ValueSpec:
				vs := *s
				vs.Doc, vs.Comment = nil, nil
				exported := false
				for _, n := range vs.Names {
					if n.IsExported() {
						exported = true
					}
				}
				if !exported {
					continue
				}
				kw := "var"
				if d.Tok == token.CONST {
					kw = "const"
				}
				out = append(out, kw+" "+printNode(fset, &vs))
			}
		}
		return out
	}
	return nil
}

func printNode(fset *token.FileSet, n any) string {
	var b bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	if err := cfg.Fprint(&b, fset, n); err != nil {
		return fmt.Sprintf("<print error: %v>", err)
	}
	return b.String()
}
