package archadapt

import (
	"fmt"
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

// reachAllowed lists the declarations that no production code reaches and
// that stay anyway, keyed "importpath.Name" or "importpath.Recv.Name", each
// with its reason. An entry must still be reached by a test outside its own
// package or by a root-package benchmark: what only its own package's tests
// reach belongs in that package's _test.go files.
var reachAllowed = map[string]string{
	// Test helpers that live beside the code they wrap.
	"archadapt/internal/fleet.RunScenario": "StartScenario + Finish in one call, the form the fleet, chaos and netsim tests drive",
	"archadapt/internal/repair.NewTxn":     "a standalone transaction, so operator tests drive Table 1 operators outside an engine",

	// A series summary the experiment golden test prints beside Min and Max.
	"archadapt/internal/metrics.Series.Mean": "metrics summary",

	// A reference the equivalence tests compare against.
	"archadapt/internal/repair.Strategy.Execute": "runs a hand-coded strategy, the reference the operators tests compare compiled scripts against",

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
// the root package's exported surface reaches it. The module is type-checked,
// tests included (the standard library from source), and a reached
// declaration reaches every package-level declaration and method its
// identifiers denote. A call through an interface method reaches that method
// on every module type that implements the interface, so a report is never a
// false alarm. One-statement accessors and methods the runtime calls are
// exempt. A reachAllowed entry is the one other way to stay, and only for a
// declaration that a test outside its package or a root-package benchmark
// reaches; what only its own package's tests reach moves into that package's
// _test.go files, and what nothing reaches is deleted.
func TestProductionCodeIsReached(t *testing.T) {
	fset, pkgs, paths := loadModule(t)

	var all []*reachDecl
	byObj := map[types.Object]*reachDecl{}
	var prodRoots []*reachDecl
	// testRoots holds the tests, benchmarks, fuzz targets and initialisers of
	// the _test.go files, keyed by the directory they run from; the root
	// package's benchmarks are keyed "", outside every package.
	testRoots := map[string][]*reachDecl{}
	var named []*types.Named // every module type that could implement an interface
	testType := map[*types.Named]bool{}
	for _, ip := range paths {
		mp := pkgs[ip]
		dir := strings.TrimSuffix(ip, "_test")
		main := mp.pkg.Name() == "main"
		for _, f := range mp.files {
			test := mp.tests[f]
			add := func(id *ast.Ident, key string, node ast.Node, exempt bool) *reachDecl {
				d := &reachDecl{key: key, node: node, info: mp.info, pos: id.Pos(), dir: dir, test: test, exempt: exempt}
				if id.Name != "_" {
					all = append(all, d)
					byObj[mp.info.Defs[id]] = d
				}
				return d
			}
			// root files d as a production root or as a test root.
			root := func(d *reachDecl, name string, fn bool) {
				switch {
				case !test && (main || fn && name == "init" || ip == module && ast.IsExported(name)):
					prodRoots = append(prodRoots, d)
				case test && fn && strings.HasPrefix(name, "Example"):
					prodRoots = append(prodRoots, d)
				case test && fn && dir == module && strings.HasPrefix(name, "Benchmark"):
					testRoots[""] = append(testRoots[""], d)
				case test && (!fn || name == "init" || strings.HasPrefix(name, "Test") ||
					strings.HasPrefix(name, "Benchmark") || strings.HasPrefix(name, "Fuzz")):
					testRoots[dir] = append(testRoots[dir], d)
				}
			}
			for _, gd := range f.Decls {
				switch gd := gd.(type) {
				case *ast.FuncDecl:
					name := gd.Name.Name
					key := ip + "." + name
					if gd.Recv != nil {
						key = ip + "." + recvName(gd.Recv.List[0].Type) + "." + name
					}
					d := add(gd.Name, key, gd, gd.Recv != nil && (runtimeMethods[name] || isAccessor(gd)))
					if gd.Recv == nil {
						root(d, name, true)
					}
				case *ast.GenDecl:
					for _, spec := range gd.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							d := add(s.Name, ip+"."+s.Name.Name, s, false)
							if !test {
								root(d, s.Name.Name, false)
							}
							if n, ok := mp.info.Defs[s.Name].Type().(*types.Named); ok && !types.IsInterface(n) {
								named = append(named, n)
								testType[n] = test
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								// A test file's initialised variable is
								// set up before its package's tests run.
								if d := add(n, ip+"."+n.Name, s, false); !test || len(s.Values) > 0 {
									root(d, n.Name, false)
								}
							}
						}
					}
				}
			}
		}
	}

	// implementations returns the methods a call through interface method o
	// reaches: o on every module type that implements the interface.
	implsOf := map[*types.Func][]reachImpl{}
	implementations := func(o *types.Func) []reachImpl {
		if got, ok := implsOf[o]; ok {
			return got
		}
		var got []reachImpl
		iface := o.Signature().Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if n.TypeParams().Len() == 0 && !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), false, o.Pkg(), o.Name()); m != nil {
				if d := byObj[m.(*types.Func).Origin()]; d != nil {
					got = append(got, reachImpl{d, testType[n]})
				}
			}
		}
		implsOf[o] = got
		return got
	}
	// edges fills what d's identifiers denote, once.
	edges := func(d *reachDecl) {
		if d.walked {
			return
		}
		d.walked = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := d.info.Uses[id]
			switch o := obj.(type) {
			case nil:
				return true
			case *types.Func:
				obj = o.Origin()
				if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
					d.impls = append(d.impls, implementations(o.Origin())...)
				}
			case *types.Var:
				obj = o.Origin()
			}
			if u := byObj[obj]; u != nil {
				d.uses = append(d.uses, u)
			}
			return true
		})
	}
	// reachFrom returns what roots reach. Production reach takes no
	// interface call into a type a _test.go file declares: a test fake
	// pays for nothing its methods call.
	reachFrom := func(roots []*reachDecl, production bool) map[*reachDecl]bool {
		reached := map[*reachDecl]bool{}
		var work []*reachDecl
		visit := func(d *reachDecl) {
			if !reached[d] {
				reached[d] = true
				work = append(work, d)
			}
		}
		for _, d := range roots {
			visit(d)
		}
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			edges(d)
			for _, u := range d.uses {
				visit(u)
			}
			for _, m := range d.impls {
				if !production || !m.testType {
					visit(m.d)
				}
			}
		}
		return reached
	}

	pays := reachFrom(prodRoots, true)
	outside := map[*reachDecl]bool{} // reached by a test outside its package or a root benchmark
	for dir, roots := range testRoots {
		for d := range reachFrom(roots, false) {
			if d.dir != dir {
				outside[d] = true
			}
		}
	}

	declared := map[string]bool{}
	for _, d := range all {
		if d.test {
			continue
		}
		declared[d.key] = true
		_, allowed := reachAllowed[d.key]
		at, name := fset.Position(d.pos), strings.TrimPrefix(d.key, module+"/")
		switch {
		case (pays[d] || d.exempt) && allowed:
			t.Errorf("reachAllowed lists %s, which pays its way now: drop the entry", d.key)
		case pays[d] || d.exempt:
		case allowed && !outside[d]:
			t.Errorf("%s: reachAllowed lists %s, which no test outside its package and no root benchmark reaches: move it into its package's _test.go files, or delete it", at, name)
		case !allowed && outside[d]:
			t.Errorf("%s: %s is reached only from tests: delete it, or list it in reachAllowed with the reason it stays", at, name)
		case !allowed:
			t.Errorf("%s: %s is reached by no command, benchmark, Example or test outside its package: move it into its package's _test.go files, or delete it", at, name)
		}
	}
	for key := range reachAllowed {
		if !declared[key] {
			t.Errorf("reachAllowed lists %s, which is not declared: drop the entry", key)
		}
	}
}

// reachDecl is one package-level declaration or method as the reach guard
// sees it.
type reachDecl struct {
	key    string // importpath.Name or importpath.Recv.Name
	node   ast.Node
	info   *types.Info
	pos    token.Pos
	dir    string // the declaring package's import path, without _test
	test   bool   // declared in a _test.go file
	exempt bool   // an accessor or a runtime-called method
	// What the identifiers in node denote, filled on the first walk through
	// it: the declarations they name, and the methods their interface calls
	// reach.
	walked bool
	uses   []*reachDecl
	impls  []reachImpl
}

// reachImpl is a method an interface call reaches, and whether a _test.go
// file declares its type.
type reachImpl struct {
	d        *reachDecl
	testType bool
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
			for _, d := range f.Decls {
				// Tests write what they like; an Example is a caller.
				if fd, ok := d.(*ast.FuncDecl); pkgs[ip].tests[f] && !(ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example")) {
					continue
				}
				ast.Inspect(d, func(n ast.Node) bool {
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
		if pkg.Name() == "main" || strings.HasSuffix(ip, "_test") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if ok && !tn.IsAlias() && !strings.HasSuffix(fset.Position(tn.Pos()).Filename, "_test.go") {
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

// loadModule parses every Go file of the module and type-checks each package
// with its in-package _test.go files, and each external test package as
// importpath_test (the standard library from source). It returns the packages
// by import path and those paths sorted.
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
		if !strings.HasSuffix(p, ".go") {
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
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &modulePkg{tests: map[*ast.File]bool{}}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		pkgs[ip].tests[f] = strings.HasSuffix(p, "_test.go")
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

// modulePkg is one package of the module as the guards load it: its files,
// in-package tests included (an external test package is one of its own),
// type-checked on first import.
type modulePkg struct {
	files    []*ast.File
	tests    map[*ast.File]bool // the _test.go files among them
	checking bool
	pkg      *types.Package
	info     *types.Info
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
	if mp.checking {
		return nil, fmt.Errorf("import cycle through %s with its tests", path)
	}
	if mp.pkg == nil {
		mp.checking = true
		defer func() { mp.checking = false }()
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
