package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestStats(t *testing.T) {
	st := Stats([]float64{1, 2, 3, 4})
	if st.Min != 1 || st.Max != 4 || st.Mean != 2.5 {
		t.Fatalf("Stats = %+v", st)
	}
	want := math.Sqrt(1.25)
	if math.Abs(st.Std-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", st.Std, want)
	}
}

func TestStatsConstantField(t *testing.T) {
	st := Stats([]float64{7, 7, 7})
	if st.Std != 0 || st.Mean != 7 {
		t.Fatalf("constant field stats = %+v", st)
	}
}

func TestRenderASCIIShape(t *testing.T) {
	field := make([]float64, 12)
	for i := range field {
		field[i] = float64(i)
	}
	out := RenderASCII(field, 4, 3)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if len(l) != 4 {
			t.Fatalf("row width %d, want 4", len(l))
		}
	}
	// North (highest j) row printed first: it holds the max values.
	if !strings.Contains(lines[1], "@") {
		t.Fatalf("top row should hold the field maximum:\n%s", out)
	}
}

func TestRenderASCIIConstant(t *testing.T) {
	out := RenderASCII([]float64{5, 5, 5, 5}, 2, 2)
	if !strings.Contains(out, "min=5") {
		t.Fatalf("missing stats header: %s", out)
	}
}

func TestRenderPGMHeader(t *testing.T) {
	field := []float64{0, 1, 2, 3}
	img := string(RenderPGM(field, 2, 2))
	if !strings.HasPrefix(img, "P2\n2 2\n255\n") {
		t.Fatalf("bad PGM header: %q", img[:20])
	}
	if !strings.Contains(img, "255") || !strings.Contains(img, "0") {
		t.Fatal("PGM must span full gray range")
	}
}
