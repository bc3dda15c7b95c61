// Command exportscan fails when an exported identifier has no caller
// outside tests. It type-checks every package of the module from source
// (go/types, with the standard library read by go/importer's "source"
// importer, so nothing is downloaded) and reports:
//
//   - each exported package-level identifier that no non-test Go file
//     references, and
//   - each exported method that no non-test Go file calls and that
//     satisfies no interface (a call through an interface names the
//     interface's method, not the concrete one).
//
// References from every non-test file count, bench/ and benchmark/
// included; identifiers declared in bench/, benchmark/, cmd/ and in
// main packages are not reported. A generic type's method counts as used
// when any instantiation of it is. Run from the module root:
//
//	go run ./scripts/exportscan
//
// It exits 1 when it reports anything not on the allow-list below.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// allow names the identifiers kept without a shipped caller, as
// "<import path>.<Name>" or "<import path>.<Type>.<Method>", each with
// its reason. An entry that names nothing the scan reports fails the run,
// so the list shrinks as callers appear.
var allow = map[string]string{
	// Test hooks that guard a safety property: released buffers and
	// parcels are poisoned so that a use after release fails a test.
	"repro/internal/network.PoisonReleasedPayloads": "poisons released payloads for the ownership tests",
	"repro/internal/parcel.SetBorrowDebug":          "poisons released borrows for the borrow tests",
	// The reference decoder the fuzzers compare the borrowing decoder
	// against.
	"repro/internal/parcel.DecodeBundle": "the fuzzers' reference decoder",

	// Facade aliases for types that a kept facade type takes, returns or
	// holds, so that a program written against the facade can name them.
	"repro.Locality":            "Runtime.Locality returns one",
	"repro.ActionFunc":          "Runtime.RegisterAction takes one",
	"repro.ComponentFactory":    "Runtime.RegisterComponentType takes one",
	"repro.ComponentActionFunc": "Runtime.RegisterComponentAction takes one",
	"repro.GID":                 "Locality.NewComponent returns one",
	"repro.Migratable":          "Locality.Migrate moves only a component that implements it",
	"repro.Fabric":              "RuntimeConfig.Fabric holds one",
	"repro.CostModel":           "RuntimeConfig.CostModel holds one",

	// The collective operations other than AllToAll, which the FFT app
	// calls. The variant and chaos suites run each one over direct, tree
	// and ring algorithms and under loss; a workload that uses them is
	// ROADMAP item 2's call.
	"repro/internal/collectives.Comm.AllGather": "collectives suites",
	"repro/internal/collectives.Comm.AllReduce": "collectives suites",
	"repro/internal/collectives.Comm.Barrier":   "collectives suites",
	"repro/internal/collectives.Comm.Broadcast": "collectives suites",
	"repro/internal/collectives.Comm.Gather":    "collectives suites",
	"repro/internal/collectives.Comm.Reduce":    "collectives suites",
	"repro/internal/collectives.Comm.Scatter":   "collectives suites",

	// Opt-ins whose paths the runtime ships and its tests drive.
	"repro/internal/runtime.Runtime.SetRetryable":   "marks an action for the re-route-on-death path the health tests run",
	"repro/internal/runtime.Locality.FreeComponent": "frees a component; the component tests route to a freed GID",

	// Probes that tests in another package read, which an export_test.go
	// file cannot provide.
	"repro/internal/network.FaultPlan.PartitionPair": "the cluster partition chaos tests cut pairs",
	"repro/internal/network.FaultPlan.HealPair":      "the cluster partition chaos tests heal pairs",
	"repro/internal/network.FaultPlan.Injected":      "the reliable and collectives chaos tests check faults were injected",
	"repro/internal/parcel.Port.Drain":               "the reliable chaos tests drain a port",
	"repro/internal/parcel.Port.DestDown":            "the runtime lifecycle tests check every layer agrees a peer is down",
	"repro/internal/health.Monitor.Suspected":        "the runtime health tests read a survivor's verdict",
	"repro/internal/timer.Timer.Armed":               "the coalescing idle-flush tests check a queued batch has a timer",
}

// skipDirs are not reported (their declarations), though their
// references count.
var skipDirs = []string{"bench", "benchmark", "cmd"}

func main() {
	mod, err := modulePath("go.mod")
	if err != nil {
		fmt.Fprintln(os.Stderr, "exportscan:", err)
		os.Exit(2)
	}
	l := &loader{
		fset: token.NewFileSet(),
		mod:  mod,
		pkgs: map[string]*pkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if err := l.loadAll("."); err != nil {
		fmt.Fprintln(os.Stderr, "exportscan:", err)
		os.Exit(2)
	}
	var bad []string
	seen := map[string]bool{}
	for _, r := range l.report() {
		if _, ok := allow[r.key]; ok {
			seen[r.key] = true
			continue
		}
		bad = append(bad, r.String())
	}
	for key := range allow {
		if !seen[key] {
			bad = append(bad, "allow-list entry no longer needed: "+key)
		}
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "exportscan: %d findings\n", len(bad))
		os.Exit(1)
	}
	fmt.Println("exportscan: every exported identifier has a caller outside tests")
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

type pkg struct {
	dir   string
	types *types.Package
	info  *types.Info
}

type loader struct {
	fset *token.FileSet
	mod  string
	std  types.ImporterFrom
	pkgs map[string]*pkg // by import path; types nil while loading
}

// loadAll type-checks every package under root.
func (l *loader) loadAll(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = l.load(l.importPath(path))
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		return err
	})
}

func (l *loader) importPath(dir string) string {
	if dir == "." {
		return l.mod
	}
	return l.mod + "/" + filepath.ToSlash(dir)
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the non-test files of one module package.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir}
	l.pkgs[path] = p
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p.info = &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return p, nil
}

type finding struct {
	key string
	pos token.Position
}

func (f finding) String() string { return fmt.Sprintf("%s: %s", f.pos, f.key) }

// report lists the exported identifiers and methods that no non-test
// file uses.
func (l *loader) report() []finding {
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}
	ifaces := l.interfaces()
	var out []finding
	for path, p := range l.pkgs {
		if p.types.Name() == "main" || skipped(p.dir) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, finding{path + "." + name, l.fset.Position(obj.Pos())})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, m, ifaces) {
					out = append(out, finding{path + "." + name + "." + m.Name(), l.fset.Position(m.Pos())})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func skipped(dir string) bool {
	for _, s := range skipDirs {
		if dir == s || strings.HasPrefix(dir, s+"/") {
			return true
		}
	}
	return false
}

// interfaces collects every interface type in sight: those named in any
// loaded package (the standard library's included) and the interface
// literals in the module's code.
func (l *loader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

// satisfies reports whether m is part of an interface that named or a
// pointer to it implements.
func satisfies(named *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, m.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
