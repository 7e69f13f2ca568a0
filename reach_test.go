package archadapt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// reachAllowed lists the declarations that nothing outside their own tests
// reaches and that stay anyway, keyed "importpath.Name" or
// "importpath.Recv.Name", each with its reason.
var reachAllowed = map[string]string{
	// Test helpers that live beside the code they wrap.
	"archadapt/internal/acme.MustParse":        "test helper: parses a literal ADL fixture or fails",
	"archadapt/internal/constraint.MustParse":  "test helper: parses a literal constraint or fails",
	"archadapt/internal/acme.Print":            "the full printer (invariants too) that FuzzParse's print → parse fixpoint runs over",
	"archadapt/internal/fleet.RunScenario":     "StartScenario + Finish in one call, the form the fleet, chaos and root benchmark tests drive",
	"archadapt/internal/repair.NewTxn":         "a standalone transaction, so operator tests drive Table 1 operators outside an engine",
	"archadapt/internal/netsim.Flow.Remaining": "a transfer's lazily settled progress, what the netsim tests check Cancel and recycling against",

	// The arrivals statistics battery the arrival-process tests run.
	"archadapt/internal/arrivals.Integrate":         "expected arrival counts for the chi-square battery",
	"archadapt/internal/arrivals.KSExponential":     "statistics battery: Kolmogorov–Smirnov against Exp",
	"archadapt/internal/arrivals.KSCritical":        "statistics battery: KS critical value",
	"archadapt/internal/arrivals.ChiSquare":         "statistics battery: chi-square statistic",
	"archadapt/internal/arrivals.ChiSquareCritical": "statistics battery: chi-square critical value",
	"archadapt/internal/arrivals.PoissonPMF":        "statistics battery: Poisson bin expectations",

	// Series and distribution summaries, kept with their types; the metrics
	// tests pin them.
	"archadapt/internal/metrics.Series.Mean":             "metrics summary",
	"archadapt/internal/metrics.Dist.Mean":               "metrics summary",
	"archadapt/internal/metrics.Series.FracAbove":        "metrics summary",
	"archadapt/internal/metrics.Series.FracAboveBetween": "metrics summary",
	"archadapt/internal/metrics.Series.LastAbove":        "metrics summary",

	// References the equivalence tests compare against.
	"archadapt/internal/model.System.ConnectorsOf":    "reference walk TestConnectedMatchesConnectorWalk checks Connected against",
	"archadapt/internal/model.System.ComponentsOn":    "reference walk TestConnectedMatchesConnectorWalk checks Connected against",
	"archadapt/internal/netsim.Network.SetBackground": "one-direction load the solver equivalence tests apply to both solvers",
	"archadapt/internal/repair.Strategy.Execute":      "runs a hand-coded strategy, the reference the operators tests compare compiled scripts against",

	// Message-loss injectors: sendReliable and the control loop recover from
	// the losses they cause, and the fault tests prove it.
	"archadapt/internal/bus.Shard.SetDrop":      "message-loss injector for the monitoring buses",
	"archadapt/internal/netsim.Network.SetDrop": "message-loss injector for control messages",

	// The paper's operators and policies.
	"archadapt/internal/envmgr.Manager.FindServer":   "Table 1 findServer",
	"archadapt/internal/envmgr.Manager.RemosGetFlow": "Table 1 remos_get_flow",
	"archadapt/internal/repair.TryAll":               "§3.2 strategy policy: sequence through all tactics",
	"archadapt/internal/queueing.ServersFor":         "§5 design-time sizing: the paper's three servers per group",
	"archadapt/internal/queueing.MinBandwidth":       "§5 design-time sizing: the paper's 10 Kbps floor",
}

// runtimeMethods are called through interfaces the standard library declares
// (fmt.Stringer, error, sort.Interface, json.Marshaler), so no selector in
// this module names them.
var runtimeMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true, "MarshalJSON": true,
}

// TestProductionCodeIsReached is the "pay or go" guard for non-test code: a
// declaration earns its place only if a command, the benchmark, an Example or
// the root package's exported surface reaches it. Reachability is by name:
// an identifier reaches the package-level declaration of that name in its
// own package, pkg.Name the one in the imported package, and x.Name every
// method called Name in the module. That over-approximates what runs, so a
// report is never a false alarm. One-statement accessors, methods the
// runtime calls and the reachAllowed entries are exempt.
func TestProductionCodeIsReached(t *testing.T) {
	const module = "archadapt"
	type decl struct {
		key  string // importpath.Name or importpath.Recv.Name
		pkg  string
		node ast.Node
		file *ast.File
		pos  token.Pos
		// exempt from the report: an accessor or a runtime-called method
		exempt bool
	}
	fset := token.NewFileSet()
	var all []*decl
	pkgDecls := map[string]*decl{}  // importpath.Name → func, type, var or const
	methods := map[string][]*decl{} // method name → every method of that name
	fileImports := map[*ast.File]map[string]string{}
	var roots []*decl
	addDecl := func(d *decl, name string, isMethod, root bool) {
		if name == "_" {
			return
		}
		all = append(all, d)
		if isMethod {
			methods[name] = append(methods[name], d)
		} else {
			pkgDecls[d.pkg+"."+name] = d
		}
		if root {
			roots = append(roots, d)
		}
	}
	parsed := 0
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
		parsed++
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := module
		if dir != "." {
			pkg = module + "/" + dir
		}
		if isExample {
			pkg += "_test"
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(ip)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ip
		}
		fileImports[f] = imports
		isMain := f.Name.Name == "main"
		isRootPkg := dir == "."
		for _, gd := range f.Decls {
			switch gd := gd.(type) {
			case *ast.FuncDecl:
				name := gd.Name.Name
				key := pkg + "." + name
				if gd.Recv != nil {
					key = pkg + "." + recvName(gd.Recv.List[0].Type) + "." + name
				}
				d := &decl{key: key, pkg: pkg, node: gd, file: f, pos: gd.Pos()}
				d.exempt = gd.Recv != nil && (runtimeMethods[name] || isAccessor(gd))
				root := isMain || isExample || name == "init" || (isRootPkg && ast.IsExported(name))
				addDecl(d, name, gd.Recv != nil, root)
			case *ast.GenDecl:
				for _, spec := range gd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						d := &decl{key: pkg + "." + s.Name.Name, pkg: pkg, node: s, file: f, pos: s.Pos()}
						addDecl(d, s.Name.Name, false, isMain || isExample || (isRootPkg && ast.IsExported(s.Name.Name)))
					case *ast.ValueSpec:
						for _, n := range s.Names {
							d := &decl{key: pkg + "." + n.Name, pkg: pkg, node: s, file: f, pos: n.Pos()}
							addDecl(d, n.Name, false, isMain || isExample || (isRootPkg && ast.IsExported(n.Name)))
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("only %d files parsed — run from the module root", parsed)
	}

	reached := map[*decl]bool{}
	work := slices.Clone(roots)
	for _, d := range roots {
		reached[d] = true
	}
	reach := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		imports := fileImports[d.file]
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						reach(pkgDecls[ip+"."+n.Sel.Name])
						return false
					}
				}
				for _, m := range methods[n.Sel.Name] {
					reach(m)
				}
			case *ast.Ident:
				reach(pkgDecls[d.pkg+"."+n.Name])
				if strings.HasSuffix(d.pkg, "_test") {
					reach(pkgDecls[strings.TrimSuffix(d.pkg, "_test")+"."+n.Name])
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
