package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceExceptions are the functions under internal/ that no binary
// links but that stay in production files, each with the reason.
var surfaceExceptions = map[string]string{
	"repro/internal/fi.ScanTrace":                     "scan oracle; fi and mc tests both pin the production resolvers against it",
	"repro/internal/fi.FirstFault":                    "per-trial first-fault oracle; fi and mc tests both pin FirstFaultBatch against it",
	"repro/internal/fi.(*Hazard).SampleIndex":         "inverse-CDF step of the FirstFault oracle",
	"repro/internal/fi.NewForkInjector":               "checkpoint-restore bridge of the scan and first-fault oracles; fi and mc tests both use it (production forks force the fork query in CPU.ForkFrom)",
	"repro/internal/fi.(*forkInjector).Inject":        "per-query method of NewForkInjector's injector",
	"repro/internal/fi.(*Hazard).Survival":            "exact survival probability, kept as the closed form Point-level ground-truth checks compare against",
	"repro/internal/core.(*System).GoldenLoadedCount": "production warm-start counter; read by the warm-start tests",
	"repro/internal/core.(*System).HazardLoadedCount": "production warm-start counter; read by the warm-start tests",
	"repro/internal/gates.(*Sim).Value":               "settled-value accessor; circuit's netlist-oracle tests read unit outputs through it",
	"repro/internal/isa.Instr.String":                 "assembly-syntax renderer; asm's disassembly round-trip and fuzz tests print through it",
}

// TestProductionSurfaceIsLinked fails for every function declared in a
// non-test file under internal/ that no binary of the repository links:
// such code is test scaffolding and belongs in a _test.go file, or is
// dead and belongs nowhere. The binaries are every main package under
// cmd/ and examples/ plus the benchmark module, built without inlining
// so that every called function keeps its own linker symbol; the linker's
// -dumpdep edge list is then the set of reachable symbols.
func TestProductionSurfaceIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary; skipped under -short")
	}
	declared := declaredInternalFuncs(t)
	linked := map[string]bool{}
	linkedPkgs := map[string]bool{}
	tmp := t.TempDir()
	for i, dir := range mainPackageDirs(t) {
		for _, sym := range linkedSymbols(t, dir, filepath.Join(tmp, strconv.Itoa(i))) {
			linked[sym] = true
			linkedPkgs[symbolPackage(sym)] = true
		}
	}
	var dead []string
	for sym := range declared {
		if linked[sym] || !linkedPkgs[symbolPackage(sym)] {
			continue
		}
		if _, ok := surfaceExceptions[sym]; ok {
			continue
		}
		dead = append(dead, sym)
	}
	sort.Strings(dead)
	for _, sym := range dead {
		t.Errorf("%s (%s) is linked by no binary: move it into a _test.go file or delete it", sym, declared[sym])
	}
	for sym := range surfaceExceptions {
		if _, ok := declared[sym]; !ok {
			t.Errorf("exception %s names no declared function", sym)
		} else if linked[sym] {
			t.Errorf("exception %s is linked; drop it from the table", sym)
		}
	}
}

// declaredInternalFuncs maps the linker symbol of every function and
// method declared in a non-test file under internal/ to its position.
func declaredInternalFuncs(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			out[funcSymbol(pkg, fd)] = fset.Position(fd.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// funcSymbol spells a declaration the way the linker names it:
// pkg.F, pkg.(*T).M or pkg.T.M, without type parameters.
func funcSymbol(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return pkg + ".(*" + name + ")." + fd.Name.Name
	}
	return pkg + "." + name + "." + fd.Name.Name
}

// mainPackageDirs lists every main package of the module under cmd/ and
// examples/, and the benchmark module's root.
func mainPackageDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	for _, root := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(root, e.Name()))
			}
		}
	}
	return append(dirs, "benchmark")
}

// linkedSymbols builds the main package in dir and returns the target of
// every reachability edge the linker reports, with generic type-argument
// lists removed. Only the exact symbol names matter to the caller: aux
// symbols such as F.arginfo1 are deduplicated by content and shared
// across unrelated functions, so they never match a declared name.
func linkedSymbols(t *testing.T, dir, bin string) []string {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", bin, "-gcflags=all=-l", "-ldflags=-dumpdep", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", dir, err, out)
	}
	var syms []string
	for _, line := range strings.Split(string(out), "\n") {
		if _, to, ok := strings.Cut(line, " -> "); ok {
			syms = append(syms, stripTypeArgs(to))
		}
	}
	return syms
}

// stripTypeArgs removes every bracketed type-argument list, so
// memo.(*Map[go.shape.string,go.shape.int]).Get becomes memo.(*Map).Get.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// symbolPackage is the import path of a symbol: everything before the
// first dot after the last slash of the path part.
func symbolPackage(sym string) string {
	slash := strings.LastIndex(sym, "/")
	if i := strings.Index(sym[slash+1:], "."); i >= 0 {
		return sym[:slash+1+i]
	}
	return sym
}
