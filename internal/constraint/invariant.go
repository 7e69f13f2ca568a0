package constraint

import (
	"fmt"

	"archadapt/internal/model"
)

// Invariant is a named constraint evaluated over the architecture. When
// Scope names an element type (e.g. "ClientT" or "ClientRoleT"), the
// invariant is checked once per element of that type with `it` bound to the
// element; with an empty Scope it is checked once against the system.
//
// This is the runtime form of the paper's
//
//	invariant r : averageLatency <= maxLatency  !→  fixLatency(r)
//
// — the association to a repair strategy lives in the repair package.
type Invariant struct {
	Name  string
	Scope string
	Expr  Expr
}

// NewInvariant parses src into an invariant.
func NewInvariant(name, scope, src string) (*Invariant, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("invariant %s: %w", name, err)
	}
	return &Invariant{Name: name, Scope: scope, Expr: e}, nil
}

// MustInvariant is NewInvariant that panics on parse errors.
func MustInvariant(name, scope, src string) *Invariant {
	inv, err := NewInvariant(name, scope, src)
	if err != nil {
		// Invariant: every caller passes a constant source (core.NewAttached,
		// the benchmark, the tests); input goes through NewInvariant.
		panic(err)
	}
	return inv
}

// Violation reports one failed invariant instance.
type Violation struct {
	Invariant *Invariant
	// Subject is the element the invariant was checked against (nil for
	// system-scoped invariants).
	Subject model.Element
	// Err is non-nil when the expression itself failed to evaluate (missing
	// property, type error); the paper treats these as model errors.
	Err error
}

// SubjectName is the subject's name, or "system" for a system-scoped
// violation.
func (v Violation) SubjectName() string {
	if v.Subject == nil {
		return "system"
	}
	return v.Subject.Name()
}

// String renders the violation.
func (v Violation) String() string {
	subj := "system"
	if v.Subject != nil {
		subj = fmt.Sprintf("%s %s", v.Subject.Kind(), v.Subject.Name())
	}
	if v.Err != nil {
		return fmt.Sprintf("%s on %s: evaluation error: %v", v.Invariant.Name, subj, v.Err)
	}
	return fmt.Sprintf("%s violated on %s", v.Invariant.Name, subj)
}

// scopeElements enumerates the elements an invariant quantifies over, each
// with no verdict yet.
func scopeElements(sys *model.System, scope string) []verdict {
	var out []verdict
	add := func(el model.Element) {
		if el.Type() == scope {
			out = append(out, verdict{el: el})
		}
	}
	for _, c := range sys.Components() {
		add(c)
		for _, p := range c.Ports() {
			add(p)
		}
	}
	for _, c := range sys.Connectors() {
		add(c)
		for _, r := range c.Roles() {
			add(r)
		}
	}
	return out
}

// Check evaluates the invariant over sys and returns violations. Elements
// lacking the referenced properties are skipped silently only when
// `SkipIncomplete` asks for it (gauges may not have reported yet); otherwise
// evaluation errors surface as violations with Err set. It is CheckAll on a
// registry of one with nothing cached, so every verdict is evaluated.
func (inv *Invariant) Check(sys *model.System, funcs map[string]func([]Value) (Value, error), skipIncomplete bool) []Violation {
	r := Registry{invs: []*Invariant{inv}, Funcs: funcs, SkipIncomplete: skipIncomplete}
	return r.CheckAll(sys)
}

// Registry is an ordered collection of invariants checked together.
//
// CheckAll is change-driven. The elements each invariant ranges over are
// enumerated once per structure revision of the system, and the verdict of
// an (invariant, element) pair is kept with the revisions of the two
// property lists a bare identifier can resolve against — the element's and
// the system's — and re-evaluated only when one of them has moved. That
// holds for expressions built from literals, bare identifiers and operators
// alone; anything that calls a function (Funcs answer from outside the
// model), quantifies, or selects through a dotted reference reads more than
// those two lists and is evaluated on every call.
type Registry struct {
	invs  []*Invariant
	Funcs map[string]func([]Value) (Value, error)
	// SkipIncomplete suppresses violations caused by missing properties —
	// the normal mode while monitoring is still warming up.
	SkipIncomplete bool

	// sys is the one system the caches describe; checking another drops
	// them, so nothing of a system outlives the registry's use of it.
	sys       *model.System
	structRev uint64
	env       *Env
	scopes    [][]verdict // per invariant, in scopeElements order
	pure      []bool      // per invariant: cacheable(Expr)
	out       []Violation // what CheckAll returns, reused call to call
	stats     Stats
}

// verdict is one cached (invariant, element) result. el is nil for a
// system-scoped invariant.
type verdict struct {
	el            model.Element
	itRev, sysRev uint64
	known         bool // ok/err hold the result at those revisions
	ok            bool
	err           error
}

// Stats counts the registry's work since it was created.
type Stats struct {
	// Checks is the number of CheckAll calls; Evaluated the expression
	// evaluations they ran and Reused the verdicts they served from cache
	// instead; ScopeRebuilds how often the scope lists were re-enumerated.
	Checks, Evaluated, Reused, ScopeRebuilds uint64
}

// Stats returns a snapshot of the work counters.
func (r *Registry) Stats() Stats { return r.stats }

// NewRegistry returns an empty registry with SkipIncomplete set.
func NewRegistry() *Registry {
	return &Registry{Funcs: map[string]func([]Value) (Value, error){}, SkipIncomplete: true}
}

// Add appends an invariant.
func (r *Registry) Add(inv *Invariant) *Registry {
	r.invs = append(r.invs, inv)
	r.sys = nil // the scope lists are one short
	return r
}

// Invariants returns the registered invariants in order.
func (r *Registry) Invariants() []*Invariant { return r.invs }

// cacheable reports whether e's value is a function of the property lists
// of `it` and the system alone.
func cacheable(e Expr) bool {
	switch x := e.(type) {
	case *Lit:
		return true
	case *Ref:
		return len(x.Parts) == 1
	case *Unary:
		return cacheable(x.X)
	case *Binary:
		return cacheable(x.L) && cacheable(x.R)
	}
	return false
}

// rescope re-enumerates every invariant's scope over sys, forgetting all
// verdicts.
func (r *Registry) rescope(sys *model.System) {
	r.sys, r.structRev = sys, sys.StructRev()
	r.env = NewEnv(sys)
	clear(r.out[:cap(r.out)])
	r.scopes = make([][]verdict, len(r.invs))
	r.pure = make([]bool, len(r.invs))
	for i, inv := range r.invs {
		r.pure[i] = cacheable(inv.Expr)
		if inv.Scope == "" {
			r.scopes[i] = []verdict{{}}
		} else {
			r.scopes[i] = scopeElements(sys, inv.Scope)
		}
	}
	r.stats.ScopeRebuilds++
}

// CheckAll checks every invariant over its scope and concatenates the
// violations in registration order, running the evaluator only where a
// verdict is missing or stale. It returns nil when nothing is violated.
// Otherwise the slice is the registry's own and valid until the next
// CheckAll, which overwrites it: a caller that keeps violations longer
// copies them. A warm pass allocates nothing, violations or not.
func (r *Registry) CheckAll(sys *model.System) []Violation {
	r.stats.Checks++
	if r.sys != sys || r.structRev != sys.StructRev() {
		r.rescope(sys)
	}
	r.env.Funcs = r.Funcs
	sysRev := sys.Props().Rev()
	out := r.out[:0]
	for i, inv := range r.invs {
		for j := range r.scopes[i] {
			v := &r.scopes[i][j]
			var itRev uint64
			if v.el != nil {
				itRev = v.el.Props().Rev()
			}
			if v.known && v.itRev == itRev && v.sysRev == sysRev {
				r.stats.Reused++
			} else {
				r.env.Reset()
				if v.el != nil {
					r.env.vars = append(r.env.vars, binding{"it", Elem(v.el)})
				}
				r.stats.Evaluated++
				v.ok, v.err = EvalBool(inv.Expr, r.env)
				v.itRev, v.sysRev, v.known = itRev, sysRev, r.pure[i]
			}
			switch {
			case v.err != nil:
				if !r.SkipIncomplete {
					out = append(out, Violation{Invariant: inv, Subject: v.el, Err: v.err})
				}
			case !v.ok:
				out = append(out, Violation{Invariant: inv, Subject: v.el})
			}
		}
	}
	r.out = out
	if len(out) == 0 {
		return nil
	}
	return out
}
