// Command docscheck enforces doc-comment coverage on the repo's public
// surface: every exported identifier — package, function, method, type,
// constant, variable, struct field, and interface method — in the audited
// packages must carry a doc comment. It also enforces the context
// convention: no exported struct has an exported context.Context field,
// because an operation that observes cancellation takes ctx as its first
// argument rather than in an options struct. `make docs-lint` runs it in
// CI.
//
// Usage:
//
//	docscheck [dir ...]
//
// With no arguments the audited set is the flow package, the solver
// substrate, and the serving layer: ., internal/lp, internal/ilp,
// internal/mcmf, internal/selection, internal/obs, internal/serve. Exit
// status 1 lists every uncommented identifier as file:line: name and every
// context field as file:line: Type.Field holds a context.Context.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs is the audited package set when no arguments are given.
var defaultDirs = []string{
	".",
	"internal/lp",
	"internal/ilp",
	"internal/mcmf",
	"internal/selection",
	"internal/obs",
	"internal/serve",
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: docscheck [dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var missing, ctxFields []string
	total := 0
	for _, dir := range dirs {
		m, c, n, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
		ctxFields = append(ctxFields, c...)
		total += n
	}
	if len(missing) > 0 || len(ctxFields) > 0 {
		all := append(missing, ctxFields...)
		sort.Strings(all)
		for _, m := range all {
			fmt.Println(m)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d of %d exported identifiers lack doc comments; %d struct fields hold a context.Context\n",
			len(missing), total, len(ctxFields))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d exported identifiers documented across %d packages\n",
		total, len(dirs))
}

// checkDir audits one package directory, returning the undocumented
// identifiers (as "file:line: name"), the exported context.Context fields of
// exported structs, and the total number of exported identifiers seen.
func checkDir(dir string) (missing, ctxFields []string, total int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	fset := token.NewFileSet()
	pkgDoc := false
	var files []*ast.File
	var paths []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, 0, err
		}
		if f.Doc != nil {
			pkgDoc = true
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	if len(files) == 0 {
		return nil, nil, 0, fmt.Errorf("%s: no Go files", dir)
	}
	total++ // the package clause itself
	if !pkgDoc {
		missing = append(missing, fmt.Sprintf("%s: package %s", dir, files[0].Name.Name))
	}
	flag := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !exportedFunc(d) {
					continue
				}
				total++
				if d.Doc == nil {
					flag(d.Pos(), funcName(d))
				}
			case *ast.GenDecl:
				m, n := checkGenDecl(fset, d)
				missing = append(missing, m...)
				total += n
				ctxFields = append(ctxFields, contextFields(fset, d)...)
			}
		}
	}
	return missing, ctxFields, total, nil
}

// contextFields lists the exported fields of type context.Context (named or
// embedded) in the exported struct types of one declaration group.
// Unexported fields are not flagged: they are not caller-set options.
func contextFields(fset *token.FileSet, d *ast.GenDecl) []string {
	var found []string
	for _, spec := range d.Specs {
		s, ok := spec.(*ast.TypeSpec)
		if !ok || !s.Name.IsExported() {
			continue
		}
		st, ok := s.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			sel, ok := f.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Context" {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "context" {
				continue
			}
			names := f.Names
			if len(names) == 0 {
				names = []*ast.Ident{sel.Sel} // embedded
			}
			for _, name := range names {
				if name.IsExported() {
					p := fset.Position(name.Pos())
					found = append(found, fmt.Sprintf("%s:%d: %s.%s holds a context.Context (take ctx as the first argument)",
						p.Filename, p.Line, s.Name.Name, name.Name))
				}
			}
		}
	}
	return found
}

// exportedFunc reports whether a function or method is part of the public
// surface: the name is exported and, for methods, the receiver's base type
// is too.
func exportedFunc(d *ast.FuncDecl) bool {
	if !d.Name.IsExported() {
		return false
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	return ast.IsExported(receiverType(d.Recv.List[0].Type))
}

// funcName renders a method as Type.Name and a function as Name.
func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		return receiverType(d.Recv.List[0].Type) + "." + d.Name.Name
	}
	return d.Name.Name
}

// receiverType unwraps pointers and generic instantiations down to the
// receiver's base type name.
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// checkGenDecl audits one type/const/var declaration group. A group-level
// doc comment covers undocumented const/var specs inside it (the idiomatic
// enum-block form); type specs and their exported fields always need their
// own comments.
func checkGenDecl(fset *token.FileSet, d *ast.GenDecl) (missing []string, total int) {
	flag := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			total++
			if s.Doc == nil && (len(d.Specs) > 1 || d.Doc == nil) {
				flag(s.Pos(), s.Name.Name)
			}
			m, n := checkFields(fset, s)
			missing = append(missing, m...)
			total += n
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				total++
				if s.Doc == nil && s.Comment == nil && d.Doc == nil {
					flag(name.Pos(), name.Name)
				}
			}
		}
	}
	return missing, total
}

// checkFields audits the exported fields of a struct type and the exported
// methods of an interface type; either a leading doc comment or a trailing
// line comment counts. Embedded fields are skipped — they are documented at
// their own declaration.
func checkFields(fset *token.FileSet, s *ast.TypeSpec) (missing []string, total int) {
	var fields *ast.FieldList
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return nil, 0
	}
	flag := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, name))
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			continue // embedded
		}
		for _, name := range f.Names {
			if !name.IsExported() {
				continue
			}
			total++
			if f.Doc == nil && f.Comment == nil {
				flag(name.Pos(), s.Name.Name+"."+name.Name)
			}
		}
	}
	return missing, total
}
