package lint

import (
	"path/filepath"
	"reflect"
	"testing"
)

func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := LoadDir(".", filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

func TestCallGraphEdges(t *testing.T) {
	g := BuildCallGraph([]*Package{loadFixturePkg(t, "interproc")})
	want := map[string][]string{
		"interproc.Leaf":        nil,
		"interproc.Mid":         {"interproc.Leaf"},
		"interproc.TopFn":       {"interproc.Leaf", "interproc.Mid"},
		"interproc.Even":        {"interproc.Odd"},
		"interproc.Odd":         {"interproc.Even"},
		"interproc.SelfRec":     {"interproc.SelfRec"},
		"interproc.CallsEmits":  {"interproc.Emits"},
		"interproc.CallsBlocks": {"interproc.Blocks"},
	}
	for key, callees := range want {
		fn := g.Funcs[key]
		if fn == nil {
			t.Fatalf("missing call-graph node %s (have %v)", key, g.Keys)
		}
		if !reflect.DeepEqual(fn.Callees, callees) {
			t.Errorf("%s callees = %v, want %v", key, fn.Callees, callees)
		}
	}
}

// sccOf returns the component containing key, and its emission index.
func sccOf(t *testing.T, g *CallGraph, key string) ([]string, int) {
	t.Helper()
	for i, scc := range g.SCCs {
		for _, k := range scc {
			if k == key {
				return scc, i
			}
		}
	}
	t.Fatalf("%s not in any SCC", key)
	return nil, 0
}

func TestSCCGroupingAndOrder(t *testing.T) {
	g := BuildCallGraph([]*Package{loadFixturePkg(t, "interproc")})

	evenSCC, _ := sccOf(t, g, "interproc.Even")
	if !reflect.DeepEqual(evenSCC, []string{"interproc.Even", "interproc.Odd"}) {
		t.Errorf("Even/Odd SCC = %v, want the mutually recursive pair together", evenSCC)
	}
	selfSCC, _ := sccOf(t, g, "interproc.SelfRec")
	if !reflect.DeepEqual(selfSCC, []string{"interproc.SelfRec"}) {
		t.Errorf("SelfRec SCC = %v, want a singleton", selfSCC)
	}

	// Callee components must be emitted before their callers'.
	_, leafIdx := sccOf(t, g, "interproc.Leaf")
	_, midIdx := sccOf(t, g, "interproc.Mid")
	_, topIdx := sccOf(t, g, "interproc.TopFn")
	if !(leafIdx < midIdx && midIdx < topIdx) {
		t.Errorf("SCC order not callee-first: Leaf=%d Mid=%d TopFn=%d", leafIdx, midIdx, topIdx)
	}
}

func TestCallGraphDeterminism(t *testing.T) {
	pkg := loadFixturePkg(t, "interproc")
	a := BuildCallGraph([]*Package{pkg})
	b := BuildCallGraph([]*Package{pkg})
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Errorf("Keys differ across builds")
	}
	if !reflect.DeepEqual(a.SCCs, b.SCCs) {
		t.Errorf("SCCs differ across builds:\n%v\n%v", a.SCCs, b.SCCs)
	}
}

func TestEffectSummaries(t *testing.T) {
	p := BuildProgram([]*Package{loadFixturePkg(t, "interproc")})
	cases := []struct {
		key  string
		has  Effects
		lack Effects
	}{
		{"interproc.Leaf", 0, EffMayBlock | EffSpawns | EffRangesMap | EffSendsChan | EffEmitsOutput},
		{"interproc.Emits", EffEmitsOutput, EffMayBlock},
		{"interproc.CallsEmits", EffEmitsOutput, EffMayBlock},
		{"interproc.Blocks", EffMayBlock, EffEmitsOutput},
		{"interproc.CallsBlocks", EffMayBlock, EffEmitsOutput},
		{"interproc.Spawns", EffSpawns | EffSendsChan, EffEmitsOutput},
		{"interproc.RangesMap", EffRangesMap, EffMayBlock},
		// The recursive pair converges without looping forever.
		{"interproc.Even", 0, EffMayBlock},
		{"interproc.SelfRec", 0, EffMayBlock},
	}
	for _, c := range cases {
		eff := p.Effects[c.key]
		if eff&c.has != c.has {
			t.Errorf("%s effects = %b, missing %b", c.key, eff, c.has)
		}
		if eff&c.lack != 0 {
			t.Errorf("%s effects = %b, should not include %b", c.key, eff, c.lack)
		}
	}
}

// TestReleaseAndNetworkEffects pins the v7 effect bits on the fixture
// packages that exercise them: EffReleases must mark a helper that
// closes its parameter and not one that only reads it (the transfer
// test resleak's interprocedural discharge depends on), and EffNetwork
// must propagate from a direct net.Dial to its in-set caller (the
// trigger retrybudget's helper case depends on).
func TestReleaseAndNetworkEffects(t *testing.T) {
	res := BuildProgram([]*Package{loadFixturePkg(t, "resleak")})
	if res.Effects["resleak.closeAll"]&EffReleases == 0 {
		t.Errorf("closeAll (closes its *os.File parameter) lacks EffReleases: %b", res.Effects["resleak.closeAll"])
	}
	if res.Effects["resleak.report"]&EffReleases != 0 {
		t.Errorf("report (only reads its parameter) must not carry EffReleases: %b", res.Effects["resleak.report"])
	}

	rb := BuildProgram([]*Package{loadFixturePkg(t, "retrybudget")})
	for _, key := range []string{"retrybudget.dialOnce", "retrybudget.hammer"} {
		if rb.Effects[key]&EffNetwork == 0 {
			t.Errorf("%s (reaches net.Dial) lacks EffNetwork: %b", key, rb.Effects[key])
		}
	}
	if rb.Effects["retrybudget.channelLoop"]&EffNetwork != 0 {
		t.Errorf("channelLoop (no network I/O) must not carry EffNetwork: %b", rb.Effects["retrybudget.channelLoop"])
	}
}
