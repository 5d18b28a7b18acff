// Command doccheck enforces the repository's documentation contract:
//
//   - every package in the module (internal/*, cmd/*, examples/*) must
//     carry a package doc comment ("// Package x ..." or, for main
//     packages, "// Command x ...");
//   - every exported identifier of every non-main package must have a
//     doc comment.
//
// It prints one line per violation and exits non-zero if any exist, so
// CI can gate on it:
//
//	go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string

	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	for _, dir := range dirs {
		probs, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		problems = append(problems, probs...)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d packages documented, every exported identifier covered\n", len(dirs))
}

// packageDirs lists every directory under root containing .go files,
// skipping hidden directories and testdata.
func packageDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// checkDir parses one package directory and returns its documentation
// problems: a missing package comment, and undocumented exported
// identifiers unless the package is a command.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	for name, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
				break
			}
		}
		if !hasDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
		}
		if name != "main" {
			problems = append(problems, apiProblems(dir, pkg)...)
		}
	}
	return problems, nil
}

// apiProblems reports exported identifiers of a package that lack doc
// comments (a doc on a const/var group covers its members). A method
// counts as exported only when both its type and its name are.
func apiProblems(dir string, pkg *ast.Package) []string {
	d := doc.New(pkg, dir, doc.AllDecls|doc.PreserveAST)
	var problems []string
	undocumented := func(kind, name, docText string) {
		exported := true
		for _, part := range strings.Split(name, ".") {
			exported = exported && ast.IsExported(part)
		}
		if strings.TrimSpace(docText) == "" && exported {
			problems = append(problems, fmt.Sprintf("%s: exported %s %s is undocumented", dir, kind, name))
		}
	}
	valueDocumented := func(v *doc.Value) bool {
		if strings.TrimSpace(v.Doc) != "" {
			return true
		}
		// A group is covered by per-spec comments too.
		for _, spec := range v.Decl.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok && vs.Doc != nil {
				return true
			}
		}
		return false
	}
	checkValues := func(kind string, vals []*doc.Value) {
		for _, v := range vals {
			if valueDocumented(v) {
				continue
			}
			for _, n := range v.Names {
				undocumented(kind, n, "")
			}
		}
	}
	checkValues("const", d.Consts)
	checkValues("var", d.Vars)
	for _, f := range d.Funcs {
		undocumented("func", f.Name, f.Doc)
	}
	for _, t := range d.Types {
		undocumented("type", t.Name, t.Doc)
		checkValues("const", t.Consts)
		checkValues("var", t.Vars)
		for _, f := range t.Funcs {
			undocumented("func", f.Name, f.Doc)
		}
		for _, m := range t.Methods {
			undocumented("method", t.Name+"."+m.Name, m.Doc)
		}
	}
	return problems
}
