package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// SlogKV enforces the structured-logging key/value convention at every
// call site of a kv-taking function. internal/telemetry's Logger (and
// log/slog itself) accept attributes as a trailing `...any` variadic of
// alternating key/value pairs; a malformed list degrades silently at
// runtime into !BADKEY attributes. This analyzer moves that failure to
// compile time:
//
//   - key/value arguments must come in pairs (even count, where one
//     slog.Attr value consumes a single slot);
//   - every key must be a compile-time string constant, so a record's
//     attribute set is fixed at build time and greppable;
//   - keys must be unique within one call, since duplicate keys make
//     one of the two values unreachable in most handlers.
//
// Seed signatures are recognized structurally: any in-module function
// whose trailing variadic is `kv ...any`, plus everything in log/slog
// with a trailing ...any variadic. Wrappers are followed through the
// call graph: a function splatting its own trailing ...any variadic
// into a kv-taking callee is itself kv-taking, and its call sites are
// checked instead.
var SlogKV = &Analyzer{
	Name: "slogkv",
	Doc: "structured-logging kv arguments must be even-count, compile-time-constant, duplicate-free keys; " +
		"wrappers forwarding their own kv variadic are followed through the call graph",
	Scope: underInternalOrCmd,
	Run:   runSlogKV,
}

// trailingAnyVariadic returns the parameter index of fn's trailing
// variadic ...any parameter, or -1 when fn has no such parameter.
func trailingAnyVariadic(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !sig.Variadic() || sig.Params().Len() == 0 {
		return -1
	}
	last := sig.Params().Len() - 1
	sl, ok := sig.Params().At(last).Type().(*types.Slice)
	if !ok {
		return -1
	}
	iface, ok := sl.Elem().Underlying().(*types.Interface)
	if !ok || !iface.Empty() {
		return -1
	}
	return last
}

// isSeedKVFunc reports whether fn takes kv attributes directly: a
// trailing ...any variadic that is either named exactly "kv" (the
// telemetry.Logger convention, recognizable from export data in any
// importing package) or declared in log/slog itself, whose variadic
// functions all share the alternating-pair contract.
func isSeedKVFunc(fn *types.Func) bool {
	idx := trailingAnyVariadic(fn)
	if idx < 0 {
		return false
	}
	if fn.Type().(*types.Signature).Params().At(idx).Name() == "kv" {
		return true
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "log/slog"
}

// slogKVTakers computes (once per Program) the set of in-set functions
// whose trailing ...any variadic is a kv parameter: seed signatures
// plus an ascending fixpoint over wrappers that splat their own
// trailing ...any variadic into a kv-taking callee.
func (p *Program) slogKVTakers() map[string]bool {
	p.kvOnce.Do(func() {
		set := map[string]bool{}
		for _, key := range p.Graph.Keys {
			info := p.Graph.Funcs[key]
			if info.Obj != nil && isSeedKVFunc(info.Obj) {
				set[key] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, key := range p.Graph.Keys {
				if set[key] {
					continue
				}
				info := p.Graph.Funcs[key]
				if info.Obj == nil || info.Decl == nil || info.Decl.Body == nil {
					continue
				}
				if trailingAnyVariadic(info.Obj) < 0 {
					continue
				}
				if forwardsKVVariadic(info, set) {
					set[key] = true
					changed = true
				}
			}
		}
		p.kvTakers = set
	})
	return p.kvTakers
}

// forwardsKVVariadic reports whether info's body splats its own
// trailing variadic parameter into the kv position of a kv-taking
// callee (seed signature or already in set).
func forwardsKVVariadic(info *FuncInfo, set map[string]bool) bool {
	obj := finalVariadicParamObj(info.Pkg.Info, info.Decl)
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !call.Ellipsis.IsValid() || len(call.Args) == 0 {
			return true
		}
		callee := StaticCallee(info.Pkg.Info, call)
		if callee == nil || (!isSeedKVFunc(callee) && !set[callee.FullName()]) {
			return true
		}
		if id, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.Ident); ok &&
			info.Pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// finalVariadicParamObj resolves the types.Object of decl's trailing
// variadic parameter, or nil when the last parameter is not variadic
// or is unnamed.
func finalVariadicParamObj(info *types.Info, decl *ast.FuncDecl) types.Object {
	params := decl.Type.Params
	if params == nil || len(params.List) == 0 {
		return nil
	}
	last := params.List[len(params.List)-1]
	if _, ok := last.Type.(*ast.Ellipsis); !ok || len(last.Names) == 0 {
		return nil
	}
	return info.Defs[last.Names[len(last.Names)-1]]
}

func runSlogKV(pass *Pass) error {
	var takers map[string]bool
	if pass.Prog != nil {
		takers = pass.Prog.slogKVTakers()
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ownVariadic := finalVariadicParamObj(pass.Info, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := StaticCallee(pass.Info, call)
				if callee == nil || (!isSeedKVFunc(callee) && !takers[callee.FullName()]) {
					return true
				}
				start := trailingAnyVariadic(callee)
				if start < 0 || start >= len(call.Args) {
					return true
				}
				checkKVCall(pass, call, callee, start, ownVariadic)
				return true
			})
		}
	}
	return nil
}

// isSlogAttr reports whether t is log/slog.Attr, which consumes a
// single kv slot instead of a key/value pair.
func isSlogAttr(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Attr" && obj.Pkg() != nil && obj.Pkg().Path() == "log/slog"
}

// checkKVCall validates the kv arguments of one call to a kv-taking
// function whose variadic begins at parameter index start.
func checkKVCall(pass *Pass, call *ast.CallExpr, callee *types.Func, start int, ownVariadic types.Object) {
	name := callee.Name()
	if call.Ellipsis.IsValid() {
		arg := ast.Unparen(call.Args[len(call.Args)-1])
		if id, ok := arg.(*ast.Ident); ok && ownVariadic != nil && pass.Info.Uses[id] == ownVariadic {
			return // forwarding this function's own kv parameter
		}
		pass.Reportf(call.Ellipsis, "%s: kv arguments splatted from a slice cannot be statically validated; "+
			"pass constant key/value pairs or forward a trailing ...any kv parameter", name)
		return
	}
	kvs := call.Args[start:]
	seen := map[string]bool{}
	for i := 0; i < len(kvs); {
		arg := kvs[i]
		if tv, ok := pass.Info.Types[arg]; ok && isSlogAttr(tv.Type) {
			i++ // one slog.Attr is a complete attribute
			continue
		}
		if i == len(kvs)-1 {
			pass.Reportf(arg.Pos(), "%s: odd number of key/value arguments; key at position %d has no value", name, i)
			return
		}
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(arg.Pos(), "%s: kv key must be a compile-time string constant", name)
			i += 2
			continue
		}
		k := constant.StringVal(tv.Value)
		if seen[k] {
			pass.Reportf(arg.Pos(), "%s: duplicate kv key %q", name, k)
		}
		seen[k] = true
		i += 2
	}
}
