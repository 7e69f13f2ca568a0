package archadapt

import (
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllowed lists the declarations that nothing outside their own tests
// reaches and that stay anyway, keyed "importpath.Name" or
// "importpath.Recv.Name", each with its reason.
var reachAllowed = map[string]string{
	// Test helpers that live beside the code they wrap.
	"archadapt/internal/acme.MustParse":       "test helper: parses a literal ADL fixture or fails",
	"archadapt/internal/constraint.MustParse": "test helper: parses a literal constraint or fails",
	"archadapt/internal/acme.Print":           "the full printer (invariants too) that FuzzParse's print → parse fixpoint runs over",
	"archadapt/internal/fleet.RunScenario":    "StartScenario + Finish in one call, the form the fleet, chaos and netsim tests drive",
	"archadapt/internal/repair.NewTxn":        "a standalone transaction, so operator tests drive Table 1 operators outside an engine",

	// A series summary the experiment golden test prints beside Min and Max.
	"archadapt/internal/metrics.Series.Mean": "metrics summary",

	// References the equivalence tests compare against.
	"archadapt/internal/netsim.Network.SetBackground": "one-direction load the solver equivalence tests apply to both solvers",
	"archadapt/internal/repair.Strategy.Execute":      "runs a hand-coded strategy, the reference the operators tests compare compiled scripts against",

	// Message-loss injectors: the gauge protocol's retransmission and the
	// control loop recover from the losses they cause, and the fault tests
	// prove it.
	"archadapt/internal/bus.Shard.SetDrop":      "message-loss injector for the monitoring buses",
	"archadapt/internal/netsim.Network.SetDrop": "message-loss injector for control messages",

	// The paper's operators and policies.
	"archadapt/internal/envmgr.Manager.FindServer":     "Table 1 findServer",
	"archadapt/internal/envmgr.Manager.RemosGetFlow":   "Table 1 remos_get_flow",
	"archadapt/internal/envmgr.Manager.CreateReqQueue": "Table 1 createReqQueue",
	"archadapt/internal/queueing.ServersFor":           "§5 design-time sizing: the paper's three servers per group",
}

// runtimeMethods are called through interfaces the standard library declares
// (fmt.Stringer, error, sort.Interface, json.Marshaler), so no selector in
// this module names them.
var runtimeMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "MarshalJSON": true,
}

// TestProductionCodeIsReached is the "pay or go" guard for non-test code: a
// declaration earns its place only if a command, the benchmark, an Example or
// the root package's exported surface reaches it. The module is type-checked
// (the standard library from source), and a reached declaration reaches every
// package-level declaration and method its identifiers denote. A call through
// an interface method reaches that method on every module type that
// implements the interface, so a report is never a false alarm. One-statement
// accessors, methods the runtime calls and the reachAllowed entries are
// exempt.
func TestProductionCodeIsReached(t *testing.T) {
	type decl struct {
		key  string // importpath.Name or importpath.Recv.Name
		node ast.Node
		info *types.Info
		pos  token.Pos
		// exempt from the report: an accessor or a runtime-called method
		exempt bool
	}
	fset, pkgs, paths := loadModule(t)

	var all []*decl
	byObj := map[types.Object]*decl{}
	var roots []*decl
	var named []*types.Named // every module type that could implement an interface
	for _, ip := range paths {
		mp := pkgs[ip]
		// A command's, the benchmark's and the Examples' declarations are
		// roots, and so is the root package's exported surface.
		allRoots := mp.pkg.Name() == "main" || strings.HasSuffix(ip, "_test")
		add := func(id *ast.Ident, key string, node ast.Node, exempt, root bool) {
			if id.Name == "_" {
				return
			}
			d := &decl{key: key, node: node, info: mp.info, pos: id.Pos(), exempt: exempt}
			all = append(all, d)
			byObj[mp.info.Defs[id]] = d
			if root || allRoots || (ip == module && ast.IsExported(id.Name)) {
				roots = append(roots, d)
			}
		}
		for _, f := range mp.files {
			for _, gd := range f.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					name := gd.Name.Name
					key := ip + "." + name
					if gd.Recv != nil {
						key = ip + "." + recvName(gd.Recv.List[0].Type) + "." + name
					}
					exempt := gd.Recv != nil && (runtimeMethods[name] || isAccessor(gd))
					add(gd.Name, key, gd, exempt, gd.Recv == nil && name == "init")
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, ip+"."+s.Name.Name, s, false, false)
							if n, ok := mp.info.Defs[s.Name].Type().(*types.Named); ok && !types.IsInterface(n) {
								named = append(named, n)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, ip+"."+n.Name, s, false, false)
							}
						}
					}
				}
			}
		}
	}

	reached := map[*decl]bool{}
	work := slices.Clone(roots)
	for _, d := range roots {
		reached[d] = true
	}
	dispatched := map[*types.Func]bool{}
	var reach func(obj types.Object)
	reach = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			recv := o.Signature().Recv()
			if recv == nil || !types.IsInterface(recv.Type()) || dispatched[o] {
				break
			}
			// A call through the interface reaches every implementation.
			dispatched[o] = true
			iface := recv.Type().Underlying().(*types.Interface)
			for _, n := range named {
				if n.TypeParams().Len() == 0 && !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), false, o.Pkg(), o.Name()); m != nil {
					reach(m)
				}
			}
		case *types.Var:
			obj = o.Origin()
		}
		if d := byObj[obj]; d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.info.Uses[id]; obj != nil {
					reach(obj)
				}
			}
			return true
		})
	}

	declared := map[string]bool{}
	for _, d := range all {
		declared[d.key] = true
		_, allowed := reachAllowed[d.key]
		switch pays := reached[d] || d.exempt; {
		case pays && allowed:
			t.Errorf("reachAllowed lists %s, which pays its way now: drop the entry", d.key)
		case !pays && !allowed:
			t.Errorf("%s: %s is reached only from tests: delete it, or list it in reachAllowed with the reason it stays",
				fset.Position(d.pos), strings.TrimPrefix(d.key, module+"/"))
		}
	}
	for key := range reachAllowed {
		if !declared[key] {
			t.Errorf("reachAllowed lists %s, which is not declared: drop the entry", key)
		}
	}
}

// fieldsAllowed lists the exported fields of library types that no non-test
// code writes and that stay anyway, keyed "importpath.Type.Field", each with
// its reason.
var fieldsAllowed = map[string]string{}

// TestExportedFieldsAreWritten is the same guard for settable values: an
// exported field of a type a library package declares is a value a caller
// can set, so some non-test code (a command, the benchmark, an Example or a
// library itself) must set it. A field that only tests write is a
// test-only switch on a production type: make it a constant, or unexport it
// behind an export_test.go hook. A write is an assignment, ++ or --, &x.F,
// or a composite-literal element; it also writes every field its target is
// nested in, as o.Manager.X = v writes Manager. Assigning a literal nil,
// false, 0 or "" is a reset, not a write: a field that production code only
// clears is still set by tests alone. Embedded fields and types declared in
// main packages are out of scope.
func TestExportedFieldsAreWritten(t *testing.T) {
	fset, pkgs, paths := loadModule(t)

	written := map[*types.Var]bool{}
	for _, ip := range paths {
		info := pkgs[ip].info
		field := func(id *ast.Ident) {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
		}
		// target marks the field a write lands in and every field around it.
		target := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					field(x.Sel)
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					return
				}
			}
		}
		// reset reports a literal zero value: nil, false, 0 or "".
		reset := func(e ast.Expr) bool {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				_, isNil := info.Uses[e].(*types.Nil)
				return isNil || info.Uses[e] == types.Universe.Lookup("false")
			case *ast.BasicLit:
				switch e.Kind {
				case token.INT, token.FLOAT:
					return constant.Sign(constant.MakeFromLiteral(e.Value, e.Kind, 0)) == 0
				case token.STRING:
					return e.Value == `""` || e.Value == "``"
				}
			}
			return false
		}
		for _, f := range pkgs[ip].files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, l := range n.Lhs {
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && reset(n.Rhs[i]) {
							continue
						}
						target(l)
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						target(n.Key)
						target(n.Value)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						target(n.X)
					}
				case *ast.CompositeLit:
					typ := info.Types[n].Type
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							field(kv.Key.(*ast.Ident))
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}

	declared := map[string]bool{}
	// check reports the unwritten exported fields of st, and of every
	// unnamed struct type a field of st holds, under the key prefix.
	var check func(prefix string, st *types.Struct)
	check = func(prefix string, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if v.Embedded() || !v.Exported() {
				continue
			}
			key := prefix + "." + v.Name()
			declared[key] = true
			_, allowed := fieldsAllowed[key]
			switch {
			case written[v] && allowed:
				t.Errorf("fieldsAllowed lists %s, which non-test code writes now: drop the entry", key)
			case !written[v] && !allowed:
				t.Errorf("%s: %s is written only by tests: make it a constant or an export_test.go hook, or list it in fieldsAllowed with the reason it stays",
					fset.Position(v.Pos()), strings.TrimPrefix(key, module+"/"))
			}
			if inner, ok := unnamedStruct(v.Type()); ok {
				check(key, inner)
			}
		}
	}
	for _, ip := range paths {
		pkg := pkgs[ip].pkg
		if pkg.Name() == "main" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					check(ip+"."+name, st)
				}
			}
		}
	}
	for key := range fieldsAllowed {
		if !declared[key] {
			t.Errorf("fieldsAllowed lists %s, which is not declared: drop the entry", key)
		}
	}
}

// unnamedStruct strips pointers, slices and arrays off typ and returns the
// struct type left underneath, if it is an unnamed one.
func unnamedStruct(typ types.Type) (*types.Struct, bool) {
	for {
		switch x := typ.(type) {
		case *types.Pointer:
			typ = x.Elem()
		case *types.Slice:
			typ = x.Elem()
		case *types.Array:
			typ = x.Elem()
		default:
			st, ok := typ.(*types.Struct)
			return st, ok
		}
	}
}

// module is the import path of the module's root package.
const module = "archadapt"

// loadModule parses the module's non-test files, plus example_test.go as
// package archadapt_test, and type-checks every package (the standard
// library from source). It returns the packages by import path and those
// paths sorted.
func loadModule(t *testing.T) (*token.FileSet, map[string]*modulePkg, []string) {
	fset := token.NewFileSet()
	pkgs := map[string]*modulePkg{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		isExample := p == "example_test.go"
		if !strings.HasSuffix(p, ".go") || (strings.HasSuffix(p, "_test.go") && !isExample) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ip := module
		if dir != "." {
			ip = module + "/" + dir
		}
		if isExample {
			ip += "_test"
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &modulePkg{}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages parsed — run from the module root", len(pkgs))
	}
	imp := &moduleImporter{pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom), fset: fset}
	paths := slices.Sorted(maps.Keys(pkgs))
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	return fset, pkgs, paths
}

// modulePkg is one package of the module as the reach guard loads it: its
// non-test files (or, for archadapt_test, example_test.go), type-checked on
// first import.
type modulePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleImporter type-checks the module's packages from the parsed files and
// hands every other import to the standard library's source importer, so
// each module object has one identity across the packages that use it.
type moduleImporter struct {
	pkgs map[string]*modulePkg
	std  types.ImporterFrom
	fset *token.FileSet
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	mp := im.pkgs[path]
	if mp == nil {
		return im.std.ImportFrom(path, ".", 0)
	}
	if mp.pkg == nil {
		mp.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, mp.files, mp.info)
		if err != nil {
			return nil, err
		}
		mp.pkg = pkg
	}
	return mp.pkg, nil
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// isAccessor reports a method whose body is empty (an interface marker) or
// one return statement that only reads, such as a counter or an indexed
// record, optionally behind a nil-receiver guard.
func isAccessor(fd *ast.FuncDecl) bool {
	body := fd.Body.List
	if len(body) == 2 {
		if s, ok := body[0].(*ast.IfStmt); ok && s.Init == nil && s.Else == nil && len(s.Body.List) == 1 {
			if c, ok := s.Cond.(*ast.BinaryExpr); ok && c.Op == token.EQL && isNil(c.Y) {
				body = body[1:]
			}
		}
	}
	if len(body) == 0 {
		return true
	}
	ret, ok := body[0].(*ast.ReturnStmt)
	if len(body) != 1 || !ok {
		return false
	}
	reads := true
	for _, r := range ret.Results {
		ast.Inspect(r, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				// Only conversions to predeclared types and len/cap read.
				id, ok := c.Fun.(*ast.Ident)
				reads = reads && ok && (id.Name == "len" || id.Name == "cap" || strings.HasPrefix(id.Name, "int") ||
					strings.HasPrefix(id.Name, "uint") || strings.HasPrefix(id.Name, "float"))
			}
			return reads
		})
	}
	return reads
}

func isNil(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == "nil" }
