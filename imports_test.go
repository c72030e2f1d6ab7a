package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported fails for any package under
// internal/ that no non-test Go file outside its own directory imports.
// Only this module and bench/ (which replaces it) can import internal/,
// so such a package is reached by no command, example, daemon or
// benchmark: only its own tests keep it alive. The walk covers bench/
// and skips dot, underscore and testdata directories, as the go tool
// does.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const prefix = "repro/"
	packages := map[string]bool{} // internal package directories
	imported := map[string]bool{} // those another directory imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if strings.HasPrefix(dir, "internal/") {
			packages[dir] = true
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if pkg, ok := strings.CutPrefix(path, prefix); ok && pkg != dir {
				imported[pkg] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packages) == 0 {
		t.Fatal("found no package under internal/")
	}
	var orphans []string
	for pkg := range packages {
		if !imported[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	slices.Sort(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s: no non-test file outside the package imports it", pkg)
	}
}
