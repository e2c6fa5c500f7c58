package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ExhaustEnum (DESIGN §7) treats a package-level const block of
// a named type — task phases, lease states, scheduler stages — as a
// closed enum: every value switch on that type, in any package of the
// set, must either cover every member or carry a default clause. The
// dispatcher's state machine must not be able to silently drop a state
// added later; a missing member is reported by name, so the fix is a
// one-line case (or an explicit default that states the policy).
//
// Membership is by constant VALUE, not name: aliased members (two
// names, one value) count as covered when either name appears, and a
// case listing multiple members covers each. Enum types are module
// types whose underlying kind is integer or string with at least two
// package-level constants of exactly that type; the members are read
// from the declaring package's scope, which works identically for
// source-checked and export-data packages, so a switch in cmd/ over an
// internal/ enum is checked against the full member set.
//
// Soundness gaps, stated plainly: type switches and switches with
// non-constant case expressions are skipped (the latter conservatively
// count as a default: a dynamic case may cover anything); a `switch
// {}` with boolean arms comparing the value is invisible; enums built
// by iota in multiple blocks are still one enum (membership is scope-
// wide, not block-wide), but a deliberately open-ended code list —
// HTTP statuses, say — will be treated as closed if it is module-local
// and typed; such switches should carry a default anyway.
var ExhaustEnum = &Analyzer{
	Name:  "exhaustenum",
	Doc:   "switches on module-local const enums must cover every member or carry a default",
	Scope: underInternalOrCmd,
	Run:   runExhaustEnum,
}

func runExhaustEnum(pass *Pass) error {
	// Module prefix: everything declared under it is "ours". For the
	// repo, Path = <module>/<RelPath>; for single-directory fixture
	// loads the two are equal and the prefix degenerates to the
	// package itself, which is exactly the fixture's universe.
	modPrefix := pass.Path
	if pass.RelPath != "." && strings.HasSuffix(pass.Path, "/"+pass.RelPath) {
		modPrefix = strings.TrimSuffix(pass.Path, "/"+pass.RelPath)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkEnumSwitch(pass, modPrefix, sw)
			return true
		})
	}
	return nil
}

func checkEnumSwitch(pass *Pass, modPrefix string, sw *ast.SwitchStmt) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok || tv.Type == nil {
		return
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return
	}
	path := obj.Pkg().Path()
	if path != modPrefix && !strings.HasPrefix(path, modPrefix+"/") {
		return
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return
	}
	members := enumMembers(obj.Pkg(), named)
	if len(members) < 2 {
		return
	}

	covered := map[string]bool{}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: the policy is stated
		}
		for _, e := range cc.List {
			etv, ok := pass.Info.Types[e]
			if !ok || etv.Value == nil {
				return // non-constant case may cover anything
			}
			covered[etv.Value.ExactString()] = true
		}
	}

	var missing []string
	for _, m := range members {
		if !covered[m.val] {
			missing = append(missing, m.name)
		}
	}
	if len(missing) == 0 {
		return
	}
	pass.Reportf(sw.Pos(), "switch on %s.%s covers %d of %d enum members and has no default; missing: %s — "+
		"add the cases or a default stating the policy, or a new member will be dropped silently",
		obj.Pkg().Name(), obj.Name(), len(members)-len(missing), len(members), strings.Join(missing, ", "))
}

type enumMember struct {
	name, val string
}

// enumMembers lists the package-level constants of exactly type named,
// deduplicated by value (the first name in sorted order speaks for an
// aliased value).
func enumMembers(pkg *types.Package, named *types.Named) []enumMember {
	scope := pkg.Scope()
	byVal := map[string]string{}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v := c.Val().ExactString()
		if prev, ok := byVal[v]; !ok || name < prev {
			byVal[v] = name
		}
	}
	out := make([]enumMember, 0, len(byVal))
	for v, n := range byVal {
		out = append(out, enumMember{name: n, val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
