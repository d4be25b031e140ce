package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// This file carries the repository's documentation contracts, run by
// cmd/tqsimlint so `make lint` is the one CI lint gate: CheckGodoc (every
// exported symbol has a doc comment) and CheckLinks (every relative
// markdown link resolves). Both return findings in the same Diagnostic
// shape as the analyzers.

// CheckGodoc reports every exported top-level symbol in the package
// directory that lacks a doc comment. Grouped const/var/type declarations
// count as documented when the group has a doc comment.
func CheckGodoc(dir string) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	report := func(pos token.Pos, kind, name string) {
		diags = append(diags, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: "godoc",
			Message:  fmt.Sprintf("exported %s %s has no doc comment", kind, name),
		})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					if d.Doc != nil {
						continue // group comment covers every spec
					}
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
								report(sp.Pos(), "type", sp.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range sp.Names {
								if name.IsExported() && sp.Doc == nil && sp.Comment == nil {
									report(name.Pos(), "value", name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return diags, nil
}

// exportedRecv reports whether a function is package-level or a method on
// an exported receiver type — unexported receivers keep their methods out
// of godoc, so they are exempt.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// mdLink matches inline markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// CheckLinks walks the tree for markdown files and verifies every
// relative link target exists. External schemes and pure anchors are
// skipped; fragments are stripped before the existence check.
func CheckLinks(root string) ([]Diagnostic, error) {
	var diags []Diagnostic
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" || name == "node_modules" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") ||
					strings.HasPrefix(target, "mailto:") ||
					strings.HasPrefix(target, "#") {
					continue
				}
				if idx := strings.IndexByte(target, '#'); idx >= 0 {
					target = target[:idx]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					diags = append(diags, Diagnostic{
						Pos:      token.Position{Filename: path, Line: i + 1},
						Analyzer: "links",
						Message:  fmt.Sprintf("broken link %q (%s does not exist)", m[1], resolved),
					})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return diags, nil
}
