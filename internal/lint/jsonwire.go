package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// JSONWire (DESIGN §7) audits every named type that reaches an
// encoding/json sink anywhere in the package set — the Program.WireTypes
// fact table, closed over the call graph and the type structure — for
// the silent and the runtime failure modes of the encoder:
//
//   - unexported fields are dropped without error on both encode and
//     decode: state that looks persisted simply is not;
//   - duplicate (or case-insensitively colliding) effective tag names:
//     Unmarshal matches tags case-insensitively, so `rho` and `Rho`
//     fight over the same input key;
//   - chan, func and complex fields make Marshal fail at runtime;
//   - bare interface{}/any fields decode as map[string]any/float64 and
//     encode whatever the dynamic value happens to be — no schema;
//   - float32/float64 fields not provably NaN/Inf-free: Marshal fails
//     at runtime on non-finite values, and ESSE state (variances,
//     condition numbers, timing ratios) is exactly where they appear.
//     A finite check anywhere in the tree (math.IsNaN/IsInf on the
//     field, directly or through a function that feeds its parameter
//     to them) blesses the field — see Program.FiniteFields;
//   - encode/decode asymmetry: an exported wire type in a non-cmd
//     package marshalled somewhere but never unmarshalled anywhere in
//     the tree (or vice versa) has no in-repo proof its wire form is
//     readable; the finding cites the lone-direction site.
//
// Soundness gaps, stated plainly: the fact table sees only static
// types at sink call sites (values reaching Marshal through an `any`
// variable bound earlier are invisible); a finite check anywhere
// blesses a field everywhere, it is not a per-path proof; _test.go
// files are parsed but not type-checked, so a decode that exists only
// in tests does not count as a decode — which is the point: the
// non-test tree must be able to read its own wire forms. Types with
// custom MarshalJSON/UnmarshalJSON covering every direction they are
// used in skip the field checks (the encoder never reflects over their
// fields). Unexported types and types in cmd/ are exempt from the
// asymmetry check only: they are package-local codec shims or emit
// JSON for external consumers.
var JSONWire = &Analyzer{
	Name:  "jsonwire",
	Doc:   "audit types crossing the JSON wire: dropped fields, colliding tags, unserializable and non-finite-float fields, encode/decode asymmetry",
	Scope: underInternalOrCmd,
	Run:   runJSONWire,
}

func runJSONWire(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					continue
				}
				checkWireType(pass, ts)
			}
		}
	}
	return nil
}

func checkWireType(pass *Pass, ts *ast.TypeSpec) {
	obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	key := pass.Path + "." + ts.Name.Name
	fact := pass.Prog.WireTypes[key]
	if fact == nil {
		return
	}
	usedM, usedU := len(fact.Marshal) > 0, len(fact.Unmarshal) > 0

	if ts.Name.IsExported() && !strings.HasPrefix(pass.RelPath, "cmd") {
		if usedM && !usedU {
			pass.Reportf(ts.Name.Pos(),
				"wire type %s is marshalled (at %s) but never unmarshalled anywhere in the package set: add a decode path proving its wire form is readable, or keep it unexported as a one-way codec shim",
				ts.Name.Name, fact.Marshal[0])
		}
		if usedU && !usedM {
			pass.Reportf(ts.Name.Pos(),
				"wire type %s is unmarshalled (at %s) but never marshalled anywhere in the package set: add an encode path, or keep it unexported as a one-way codec shim",
				ts.Name.Name, fact.Unmarshal[0])
		}
	}

	customM := hasJSONMethod(obj, "MarshalJSON")
	customU := hasJSONMethod(obj, "UnmarshalJSON")
	if (!usedM || customM) && (!usedU || customU) {
		return // custom codec covers every direction in use
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	checkWireFields(pass, ts.Name.Name, key, st)
}

// checkWireFields runs the per-field checks over one wire struct.
func checkWireFields(pass *Pass, typeName, typeKey string, st *ast.StructType) {
	// effective tag name (lowercased) → how it was first spelled
	names := map[string]string{}
	for _, field := range st.Fields.List {
		tag := ""
		if field.Tag != nil {
			tag = strings.Trim(field.Tag.Value, "`")
		}
		tagName := jsonTagName(tag)
		if tagName == "-" {
			continue
		}
		if len(field.Names) == 0 {
			// Embedded field: promoted names are checked where the
			// embedded type is declared; a tagged embedding behaves as a
			// named field for collision purposes.
			if tagName != "" {
				reportTagCollision(pass, field.Pos(), typeName, names, tagName)
			}
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if !name.IsExported() {
				pass.Reportf(name.Pos(),
					"unexported field %s of wire type %s is silently dropped by encoding/json: export it, or tag it `json:\"-\"` to make the omission explicit",
					name.Name, typeName)
				continue
			}
			eff := tagName
			if eff == "" {
				eff = name.Name
			}
			reportTagCollision(pass, name.Pos(), typeName, names, eff)

			ft := pass.Info.Defs[name].Type()
			if ft == nil {
				continue
			}
			if kind := unserializableKind(ft, nil); kind != "" {
				pass.Reportf(name.Pos(),
					"field %s of wire type %s contains a %s value: json.Marshal fails on it at runtime; drop it from the wire form or tag it `json:\"-\"`",
					name.Name, typeName, kind)
			}
			if iface, ok := ft.Underlying().(*types.Interface); ok && iface.NumMethods() == 0 {
				pass.Reportf(name.Pos(),
					"field %s of wire type %s is a bare interface: it decodes as map[string]any/float64 and encodes whatever it dynamically holds; give the wire form a concrete type",
					name.Name, typeName)
			}
			if b, ok := ft.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				if !pass.Prog.FiniteFields[typeKey+"."+name.Name] {
					pass.Reportf(name.Pos(),
						"float field %s of wire type %s is not provably NaN/Inf-free: json.Marshal fails at runtime on non-finite values; guard it on the encode path with math.IsNaN/IsInf",
						name.Name, typeName)
				}
			}
		}
	}
}

// reportTagCollision records eff as an effective tag name of typeName
// and reports if it duplicates — exactly or case-insensitively — a
// name already claimed by an earlier field.
func reportTagCollision(pass *Pass, pos token.Pos, typeName string, names map[string]string, eff string) {
	lower := strings.ToLower(eff)
	prev, taken := names[lower]
	if !taken {
		names[lower] = eff
		return
	}
	if prev == eff {
		pass.Reportf(pos,
			"duplicate json tag %q on wire type %s: encoding/json drops both fields on encode and fills neither deterministically on decode",
			eff, typeName)
		return
	}
	pass.Reportf(pos,
		"json tags %q and %q on wire type %s collide case-insensitively: Unmarshal matches tags case-insensitively, so both fields fight over the same input key",
		prev, eff, typeName)
}

// jsonTagName extracts the name component of a struct tag's json key:
// "" when absent, "-" when the field is explicitly excluded.
func jsonTagName(tag string) string {
	v := reflect.StructTag(tag).Get("json")
	if v == "" {
		return ""
	}
	name, _, _ := strings.Cut(v, ",")
	return name
}

// hasJSONMethod reports whether the type (or its pointer) defines the
// named method.
func hasJSONMethod(obj *types.TypeName, name string) bool {
	o, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, obj.Pkg(), name)
	_, ok := o.(*types.Func)
	return ok
}

// unserializableKind walks t the way the encoder would and returns
// "chan", "func" or "complex" if Marshal would fail at runtime, or "".
// Named types with a custom MarshalJSON stop the walk: the encoder
// never reflects past them.
func unserializableKind(t types.Type, seen map[*types.Named]bool) string {
	switch v := t.(type) {
	case *types.Named:
		if seen[v] {
			return ""
		}
		if seen == nil {
			seen = map[*types.Named]bool{}
		}
		seen[v] = true
		if hasJSONMethod(v.Obj(), "MarshalJSON") {
			return ""
		}
		return unserializableKind(v.Underlying(), seen)
	case *types.Pointer:
		return unserializableKind(v.Elem(), seen)
	case *types.Slice:
		return unserializableKind(v.Elem(), seen)
	case *types.Array:
		return unserializableKind(v.Elem(), seen)
	case *types.Map:
		return unserializableKind(v.Elem(), seen)
	case *types.Chan:
		return "chan"
	case *types.Signature:
		return "func"
	case *types.Basic:
		if v.Info()&types.IsComplex != 0 {
			return "complex"
		}
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			f := v.Field(i)
			if !f.Exported() && !f.Anonymous() {
				continue
			}
			if jsonTagName(v.Tag(i)) == "-" {
				continue
			}
			if k := unserializableKind(f.Type(), seen); k != "" {
				return k
			}
		}
	}
	return ""
}
