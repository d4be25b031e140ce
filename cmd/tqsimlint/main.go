// Command tqsimlint is the repository's single lint gate: a multichecker
// running the six determinism & serve-invariant analyzers from
// internal/analysis plus the godoc and markdown-link documentation
// contracts.
//
//	tqsimlint ./...                 run everything (make lint does this)
//	tqsimlint -run maporder,errdrop ./internal/serve
//	tqsimlint -godoc= -links=false ./...   analyzers only
//	tqsimlint -list                 describe the analyzers and exit
//
// Each analyzer encodes an invariant that has already been violated once
// in this repository's history; docs/static-analysis.md documents every
// invariant, its incident, and the //lint:allow escape hatch. Findings
// print one per line as file:line:col: [analyzer] message and any finding
// makes the exit status nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tqsim/internal/analysis"
)

func main() {
	var (
		run   = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		godoc = flag.String("godoc", ".", "comma-separated package dirs for the exported-docs check; empty disables")
		links = flag.Bool("links", true, "check that relative markdown links resolve")
		list  = flag.Bool("list", false, "list analyzers and exit")
	)
	flag.Parse()
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", "godoc", "every exported symbol in the public package has a doc comment")
		fmt.Printf("%-12s %s\n", "links", "every relative markdown link in the repo resolves")
		return
	}

	analyzers, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqsimlint:", err)
		os.Exit(2)
	}

	root, module, err := analysis.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqsimlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var diags []analysis.Diagnostic
	if len(analyzers) > 0 {
		pkgs, err := loadPatterns(patterns, root, module)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqsimlint:", err)
			os.Exit(2)
		}
		diags, err = analysis.Run(pkgs, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqsimlint:", err)
			os.Exit(2)
		}
	}

	if *godoc != "" {
		for _, dir := range strings.Split(*godoc, ",") {
			got, err := analysis.CheckGodoc(strings.TrimSpace(dir))
			if err != nil {
				fmt.Fprintln(os.Stderr, "tqsimlint:", err)
				os.Exit(2)
			}
			diags = append(diags, got...)
		}
	}
	if *links {
		got, err := analysis.CheckLinks(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqsimlint:", err)
			os.Exit(2)
		}
		diags = append(diags, got...)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "tqsimlint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -run list against the registered suite.
func selectAnalyzers(spec string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, found := byName[name]
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// loadPatterns loads package units for "dir", "dir/..." or "./..."
// patterns, one shared loader (and type-checker cache) across all of
// them. Type errors degrade the sweep rather than abort it, but are
// surfaced on stderr so a broken file can't silently shrink coverage.
func loadPatterns(patterns []string, root, module string) ([]*analysis.Package, error) {
	l := analysis.NewLoader()
	seen := map[string]bool{}
	var pkgs []*analysis.Package
	add := func(units []*analysis.Package) {
		for _, u := range units {
			if !seen[u.ImportPath] {
				seen[u.ImportPath] = true
				pkgs = append(pkgs, u)
			}
		}
	}
	for _, pat := range patterns {
		recursive := false
		dir := pat
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			dir = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if dir == "" || dir == "." {
				dir = root
			}
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %q is outside the module at %s", pat, root)
		}
		importPath := module
		if rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		if recursive {
			units, err := l.LoadTree(abs, importPath)
			if err != nil {
				return nil, err
			}
			add(units)
		} else {
			units, err := l.LoadDir(abs, importPath)
			if err != nil {
				return nil, err
			}
			add(units)
		}
	}
	for i, err := range l.TypeErrors {
		if i == 8 {
			fmt.Fprintf(os.Stderr, "tqsimlint: ... %d more type errors\n", len(l.TypeErrors)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "tqsimlint: type error:", err)
	}
	return pkgs, nil
}
