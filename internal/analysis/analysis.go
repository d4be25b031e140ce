// Package analysis implements tqsimlint: a suite of project-specific
// static analyzers that mechanize the determinism and serve-layer
// invariants this reproduction's correctness guarantees rest on.
//
// Every guarantee the conformance suites make — byte-identical histograms
// across backends, worker counts, cache replays and fault injection —
// depends on conventions that were previously enforced by hand and had
// each already been violated once: seeds must derive through rng.SeedAt,
// map iteration must not feed order-sensitive sinks, stream-emit errors
// must abort, HTTP handlers must drain request bodies, and atomically
// accessed fields must never see plain loads or stores. Each analyzer in
// this package encodes one of those invariants; cmd/tqsimlint runs them
// all over the repository as the single `make lint` CI gate.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Reportf, analysistest-style fixtures) but is built entirely on the
// standard library's go/ast and go/types so the module keeps zero
// third-party dependencies and lints offline. Intentional exceptions are
// annotated in source with an auditable escape hatch:
//
//	//lint:allow <analyzer> -- reason
//
// placed on the flagged line or the line directly above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package unit through its Pass and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in findings and //lint:allow comments.
	Name string
	// Doc is the one-paragraph invariant statement shown by -list.
	Doc string
	// Run executes the analyzer over one package unit.
	Run func(*Pass) error
}

// Pass carries one type-checked package unit (a package, or the external
// _test package of a directory) through an analyzer run.
type Pass struct {
	// Analyzer is the check this pass executes.
	Analyzer *Analyzer
	// Fset maps AST positions back to file coordinates.
	Fset *token.FileSet
	// Files are the parsed source files of the unit, comments included.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the unit's type-checking facts (Types, Defs, Uses,
	// Selections).
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, printed in the file:pos: [check] convention.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the check that produced it.
	Analyzer string
	// Message states the violated invariant and the fix direction.
	Message string
}

// String renders the finding as "file:line:col: [analyzer] message" so
// editors and CI annotations can jump to it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full tqsimlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRand,
		SeedDerive,
		MapOrder,
		ErrDrop,
		BodyDrain,
		AtomicMix,
	}
}

// allowRe matches the escape-hatch comment: //lint:allow name1,name2
// optionally followed by "-- reason".
var allowRe = regexp.MustCompile(`^//\s*lint:allow\s+([A-Za-z0-9_,-]+)`)

// allowedLines collects, per file line, the set of analyzer names a
// //lint:allow comment suppresses. An allow comment suppresses findings
// on its own line and on the line directly below it (so it can sit on the
// flagged statement or stand alone above it).
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	out := map[string]map[int]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					out[pos.Filename] = byLine
				}
				set := byLine[pos.Line]
				if set == nil {
					set = map[string]bool{}
					byLine[pos.Line] = set
				}
				for _, name := range strings.Split(m[1], ",") {
					set[strings.TrimSpace(name)] = true
				}
			}
		}
	}
	return out
}

// Run executes every analyzer over every package unit and returns the
// surviving findings sorted by position. //lint:allow-suppressed findings
// are dropped here so every front end shares the escape hatch.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := allowedLines(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		diags = suppress(diags, allow)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppress filters out findings covered by a //lint:allow comment on the
// finding's line or the line above it.
func suppress(diags []Diagnostic, allow map[string]map[int]map[string]bool) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		byLine := allow[d.Pos.Filename]
		if byLine != nil &&
			(byLine[d.Pos.Line][d.Analyzer] || byLine[d.Pos.Line-1][d.Analyzer]) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// ---- shared type predicates ----

var (
	writerIface *types.Interface
	hashIface   *types.Interface
)

func init() {
	byteSlice := types.NewSlice(types.Typ[types.Byte])
	intT := types.Typ[types.Int]
	errT := types.Universe.Lookup("error").Type()
	sig := func(params, results []types.Type) *types.Signature {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewVar(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		return types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
	}
	write := types.NewFunc(token.NoPos, nil, "Write", sig([]types.Type{byteSlice}, []types.Type{intT, errT}))
	writerIface = types.NewInterfaceType([]*types.Func{write}, nil)
	writerIface.Complete()
	// hash.Hash, reconstructed structurally so analyzers can exempt
	// hash writes (documented to never return an error) without
	// importing the package under analysis.
	hashIface = types.NewInterfaceType([]*types.Func{
		types.NewFunc(token.NoPos, nil, "Write", sig([]types.Type{byteSlice}, []types.Type{intT, errT})),
		types.NewFunc(token.NoPos, nil, "Sum", sig([]types.Type{byteSlice}, []types.Type{byteSlice})),
		types.NewFunc(token.NoPos, nil, "Reset", sig(nil, nil)),
		types.NewFunc(token.NoPos, nil, "Size", sig(nil, []types.Type{intT})),
		types.NewFunc(token.NoPos, nil, "BlockSize", sig(nil, []types.Type{intT})),
	}, nil)
	hashIface.Complete()
}

// implementsWriter reports whether t (or *t) satisfies io.Writer.
func implementsWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, writerIface) || types.Implements(types.NewPointer(t), writerIface)
}

// implementsHash reports whether t (or *t) satisfies hash.Hash.
func implementsHash(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, hashIface) || types.Implements(types.NewPointer(t), hashIface)
}

// methodCall decomposes a call expression into its receiver type, method
// name and signature. ok is false for non-method calls (package functions,
// conversions, builtins).
func methodCall(info *types.Info, call *ast.CallExpr) (recv types.Type, name string, sigT *types.Signature, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", nil, false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", nil, false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc {
		return nil, "", nil, false
	}
	return selection.Recv(), fn.Name(), fn.Type().(*types.Signature), true
}

// lastResultIsError reports whether the signature's final result is the
// built-in error type.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res == nil || res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), types.Universe.Lookup("error").Type())
}

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("fmt", "Fprintf"); ok is false otherwise.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj, found := info.Uses[sel.Sel]
	if !found {
		return "", "", false
	}
	fn, isFunc := obj.(*types.Func)
	if !isFunc || fn.Pkg() == nil {
		return "", "", false
	}
	if _, isMethod := info.Selections[sel]; isMethod {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// basePkgName strips the external-test suffix: "serve_test" → "serve".
func basePkgName(name string) string {
	return strings.TrimSuffix(name, "_test")
}
