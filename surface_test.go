package orchestra_test

// The dead-surface check: ROADMAP's rule that every mechanism points at
// the test or benchmark that earns it, or goes, applied mechanically.
// It type-checks every non-test package of the module, plus the separate
// bench/ module as a caller, and fails on any exported function, method,
// const, var or untagged struct field under internal/ that no non-test
// code references, and on any settable value (an exported field of an
// internal Options or Config struct, or a root With* option) that no
// non-test code sets and DESIGN.md §14's knob ledger does not name.
// Methods that implement an interface are exempt. Anything else that only
// tests reach needs an allowlist entry giving one of a fixed set of
// reasons, and an entry that stops being needed fails the check, so the
// list cannot rot.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// surfaceReason is why a name only tests reach stays in the program.
type surfaceReason string

const (
	reasonOracle  surfaceReason = "test oracle"
	reasonFixture surfaceReason = "test fixture shared across packages"
	reasonEnum    surfaceReason = "enum zero value"
)

var surfaceReasons = []surfaceReason{reasonOracle, reasonFixture, reasonEnum}

// surfaceAllowlist names, as <package dir>.<name>, the exported internal
// surface that only tests reach. Names bench/ uses count as used and need
// no entry.
var surfaceAllowlist = map[string]surfaceReason{
	"internal/exchange.Engine.Apply":           reasonOracle,
	"internal/exchange.Engine.MaterializePeer": reasonOracle,
	"internal/exchange.Engine.UnionDB":         reasonOracle,
	"internal/storage.Instance.Equal":          reasonOracle,
	"internal/datalog.Incremental.Plans":       reasonOracle,
	"internal/workload.Star":                   reasonFixture,
	"internal/workload.Stream":                 reasonFixture,
	"internal/workload.OPBaseTxn":              reasonFixture,
	"internal/datalog.NewHead":                 reasonFixture,
	"internal/datalog.DB.AddTuple":             reasonFixture,
	"internal/provenance.FromMonomials":        reasonFixture,
	"internal/core.GoalDirected":               reasonEnum,
}

func TestSurfaceEarnsItsKeep(t *testing.T) {
	knobs, err := knobLedger("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	problems, err := surfaceCheck{
		Root:    ".",
		Callers: []string{"bench"},
		Allow:   surfaceAllowlist,
		Knobs:   knobs,
	}.run()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestSurfaceCheckFixture(t *testing.T) {
	check := func(allow map[string]surfaceReason) []string {
		t.Helper()
		problems, err := surfaceCheck{
			Root:    filepath.Join("testdata", "surface"),
			Callers: []string{"caller"},
			Allow:   allow,
			Knobs:   map[string]bool{"Knob": true},
		}.run()
		if err != nil {
			t.Fatal(err)
		}
		return problems
	}
	has := func(problems []string, name string) bool {
		return slices.ContainsFunc(problems, func(p string) bool { return strings.HasPrefix(p, name+":") })
	}

	got := check(map[string]surfaceReason{"internal/lib.Oracle": reasonOracle})
	for _, name := range []string{"internal/lib.Unused", "internal/lib.Options.Unset", "internal/lib.Options.Unused", "WithUnset"} {
		if !has(got, name) {
			t.Errorf("%s not reported; problems: %q", name, got)
		}
	}
	for _, name := range []string{
		"internal/lib.Used", "internal/lib.T.String", "internal/lib.T.Do", "internal/lib.ByCaller",
		"internal/lib.Oracle", "internal/lib.Options.Set", "internal/lib.Options.Knob", "WithKnob",
	} {
		if has(got, name) {
			t.Errorf("%s reported; problems: %q", name, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("got %d problems, want 4: %q", len(got), got)
	}

	got = check(map[string]surfaceReason{"internal/lib.Oracle": "", "internal/lib.Unused": "needed"})
	for _, name := range []string{"internal/lib.Oracle", "internal/lib.Unused"} {
		if !slices.ContainsFunc(got, func(p string) bool {
			return strings.HasPrefix(p, name+":") && strings.Contains(p, "no reason from")
		}) {
			t.Errorf("allowlist entry %s without a valid reason not reported; problems: %q", name, got)
		}
	}

	got = check(map[string]surfaceReason{
		"internal/lib.Oracle":   reasonOracle,
		"internal/lib.Unused":   reasonOracle,
		"internal/lib.Used":     reasonOracle,
		"internal/lib.ByCaller": reasonOracle,
		"internal/lib.Gone":     reasonOracle,
	})
	for _, name := range []string{"internal/lib.Used", "internal/lib.ByCaller", "internal/lib.Gone"} {
		if !slices.ContainsFunc(got, func(p string) bool {
			return strings.HasPrefix(p, name+":") && strings.Contains(p, "stale")
		}) {
			t.Errorf("stale allowlist entry %s not reported; problems: %q", name, got)
		}
	}
	if has(got, "internal/lib.Unused") || has(got, "internal/lib.Oracle") {
		t.Errorf("live allowlist entry reported: %q", got)
	}
}

// surfaceCheck is one run of the check over a module.
type surfaceCheck struct {
	Root    string   // module root, holding go.mod
	Callers []string // directories under Root holding their own modules, whose non-test code counts as callers
	Allow   map[string]surfaceReason
	Knobs   map[string]bool // names in the first column of the knob ledger
}

// run returns one line per violation, sorted.
func (c surfaceCheck) run() ([]string, error) {
	l := &surfaceLoader{
		root: c.Root,
		fset: token.NewFileSet(),
		std:  importer.Default(),
		dirs: map[string]string{},
		pkgs: map[string]*surfacePkg{},
	}
	var paths []string
	for _, dir := range append([]string{"."}, c.Callers...) {
		found, err := l.addModule(dir)
		if err != nil {
			return nil, err
		}
		paths = append(paths, found...)
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	ifaces := protocolInterfaces()
	for _, path := range paths {
		p := l.pkgs[path]
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range p.files {
			markSet(f, p.info, set)
		}
	}
	ifaces = append(ifaces, stdInterfaces(l.pkgs)...)
	byMethod := map[string][]*types.Interface{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}

	var problems []string
	report := func(name string, obj types.Object, format string, args ...any) {
		pos := l.fset.Position(obj.Pos())
		if rel, err := filepath.Rel(c.Root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		problems = append(problems, fmt.Sprintf("%s: %s (%s:%d)", name, fmt.Sprintf(format, args...), pos.Filename, pos.Line))
	}
	candidates := map[string]bool{}
	for _, path := range paths {
		p := l.pkgs[path]
		if p.rel == "." {
			for _, name := range p.pkg.Scope().Names() {
				obj := p.pkg.Scope().Lookup(name)
				if fn, ok := obj.(*types.Func); ok && strings.HasPrefix(name, "With") &&
					!used[fn] && !c.Knobs[name] && !c.Knobs[strings.TrimPrefix(name, "With")] {
					report(name, obj, "option no non-test code sets and %s does not name", knobLedgerRef)
				}
			}
			continue
		}
		if p.rel != "internal" && !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, e := range exportedSurface(p) {
			candidates[e.name] = true
			if _, ok := c.Allow[e.name]; ok {
				if used[e.obj] {
					report(e.name, e.obj, "stale allowlist entry: non-test code references it")
				}
				continue
			}
			if e.recv != nil && implementsAny(e.recv, e.obj.Name(), byMethod) {
				continue
			}
			if !used[e.obj] {
				report(e.name, e.obj, "exported, but only tests reference it: delete it or allowlist it with a reason")
			} else if e.option && !set[e.obj] && !c.Knobs[e.obj.Name()] {
				report(e.name, e.obj, "option no non-test code sets and %s does not name", knobLedgerRef)
			}
		}
	}
	for name, reason := range c.Allow {
		if !slices.Contains(surfaceReasons, reason) {
			problems = append(problems, fmt.Sprintf("%s: allowlist entry has no reason from %q", name, surfaceReasons))
		}
		if !candidates[name] {
			problems = append(problems, fmt.Sprintf("%s: stale allowlist entry: no such exported name", name))
		}
	}
	slices.Sort(problems)
	return problems, nil
}

const knobLedgerRef = "DESIGN.md §14"

type surfacePkg struct {
	rel   string // directory relative to the module root
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// surfaceLoader type-checks the module's packages from source, importing
// the standard library from export data.
type surfaceLoader struct {
	root string // the main module's directory
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory relative to root
	pkgs map[string]*surfacePkg
}

// addModule registers every package directory of the module at dir (below
// root), skipping testdata and nested modules, and returns their import
// paths.
func (l *surfaceLoader) addModule(dir string) ([]string, error) {
	modDir := filepath.Join(l.root, dir)
	mod, err := modulePath(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	var paths []string
	err = filepath.WalkDir(modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != modDir {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(modDir, path)
		if err != nil {
			return err
		}
		imp := mod
		if rel != "." {
			imp = mod + "/" + filepath.ToSlash(rel)
		}
		relRoot, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		l.dirs[imp] = filepath.ToSlash(relRoot)
		paths = append(paths, imp)
		return nil
	})
	return paths, err
}

// load type-checks the package at import path once.
func (l *surfaceLoader) load(path string) (*surfacePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	rel := l.dirs[path]
	bp, err := build.Default.ImportDir(filepath.Join(l.root, rel), 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		l.pkgs[path] = &surfacePkg{rel: rel, pkg: types.NewPackage(path, ""), info: &types.Info{}}
		return l.pkgs[path], nil
	}
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = nil
	p := &surfacePkg{rel: rel, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer.
func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

// modulePath reads the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// surfaceName is one exported name a package declares.
type surfaceName struct {
	name   string // <package dir>.<name>, or .<type>.<member> for methods and fields
	obj    types.Object
	recv   types.Type // a method's receiver type, without pointer; nil otherwise
	option bool       // a field of a struct type named Options or Config
}

// exportedSurface lists p's exported funcs, consts, vars, methods and
// untagged, non-embedded struct fields of package-level types.
func exportedSurface(p *surfacePkg) []surfaceName {
	var out []surfaceName
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		qual := p.rel + "." + name
		switch obj := obj.(type) {
		case *types.Func, *types.Const, *types.Var:
			if obj.Exported() {
				out = append(out, surfaceName{name: qual, obj: obj})
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					out = append(out, surfaceName{name: qual + "." + m.Name(), obj: m, recv: named})
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			option := obj.Exported() && (name == "Options" || name == "Config")
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					out = append(out, surfaceName{name: qual + "." + f.Name(), obj: f, option: option})
				}
			}
		}
	}
	return out
}

// markSet records every struct field the file writes: a key of a composite
// literal, every field of a positional one, the target of an assignment or
// increment, or an operand of &. A write inside a value-receiver method of
// the struct's own type fills in a copy, such as defaults, and does not
// count.
func markSet(f *ast.File, info *types.Info, set map[types.Object]bool) {
	var recv types.Type
	own := func(t types.Type) bool { return recv != nil && types.Identical(t, recv) }
	field := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && !own(info.TypeOf(sel.X)) {
				set[origin(v)] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			recv = nil
			if n.Recv != nil && len(n.Recv.List) > 0 {
				if t := info.TypeOf(n.Recv.List[0].Type); !isPointer(t) {
					recv = t
				}
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok || own(tv.Type) {
				break
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && info.Uses[id] != nil {
						set[origin(info.Uses[id])] = true
					}
				} else if i < st.NumFields() {
					set[origin(st.Field(i))] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				field(lhs)
			}
		case *ast.IncDecStmt:
			field(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				field(n.X)
			}
		}
		return true
	})
}

func isPointer(t types.Type) bool {
	_, ok := t.(*types.Pointer)
	return ok
}

// origin maps an instantiated generic member to its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// implementsAny reports whether recv or *recv implements an interface that
// declares a method called name.
func implementsAny(recv types.Type, name string, byMethod map[string][]*types.Interface) bool {
	for _, it := range byMethod[name] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// protocolInterfaces are error and fmt.Stringer, which a package may
// satisfy without importing fmt, and the method sets package errors looks
// for through anonymous interfaces, which no package scope declares.
func protocolInterfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	boolType := types.Typ[types.Bool]
	method := func(name string, params, results []types.Type) *types.Interface {
		vars := func(ts []types.Type) *types.Tuple {
			var vs []*types.Var
			for _, t := range ts {
				vs = append(vs, types.NewParam(token.NoPos, nil, "", t))
			}
			return types.NewTuple(vs...)
		}
		sig := types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false)
		it := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil)
		return it.Complete()
	}
	return []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		method("String", nil, []types.Type{types.Typ[types.String]}),
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{boolType}),
		method("As", []types.Type{anyType}, []types.Type{boolType}),
	}
}

// stdInterfaces lists the non-generic interfaces every package the module
// imports from outside itself declares, transitively.
func stdInterfaces(pkgs map[string]*surfacePkg) []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		for _, imp := range p.pkg.Imports() {
			if _, local := pkgs[imp.Path()]; !local {
				visit(imp)
			}
		}
	}
	return out
}

var ledgerIdent = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// knobLedger returns the identifiers in the first column of the design
// document's §14 table.
func knobLedger(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	knobs := map[string]bool{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## §14 ")
			continue
		}
		cells := strings.Split(line, "|")
		if !in || len(cells) < 3 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		for _, id := range ledgerIdent.FindAllString(cells[1], -1) {
			knobs[id] = true
		}
	}
	if len(knobs) == 0 {
		return nil, fmt.Errorf("%s: no §14 knob table", path)
	}
	return knobs, nil
}
