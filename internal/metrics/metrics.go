// Package metrics provides the ensemble field statistics used to
// evaluate ESSE runs and the field renderers that regenerate the
// paper's uncertainty maps (Figs. 5 and 6) as ASCII art and portable
// graymap (PGM) images.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// FieldStats summarizes a scalar field.
type FieldStats struct {
	Min, Max, Mean, Std float64
}

// Stats computes field statistics; it panics on an empty field.
func Stats(field []float64) FieldStats {
	if len(field) == 0 {
		panic("metrics: Stats of empty field")
	}
	st := FieldStats{Min: field[0], Max: field[0]}
	sum, sumSq := 0.0, 0.0
	for _, v := range field {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
		sumSq += v * v
	}
	n := float64(len(field))
	st.Mean = sum / n
	variance := sumSq/n - st.Mean*st.Mean
	if variance < 0 {
		variance = 0
	}
	st.Std = math.Sqrt(variance)
	return st
}

// asciiRamp orders characters from low to high field value.
const asciiRamp = " .:-=+*#%@"

// RenderASCII draws an nx×ny field as an ASCII map (row j=ny-1 printed
// first so north is up), with a linear ramp between the field min/max.
func RenderASCII(field []float64, nx, ny int) string {
	if len(field) != nx*ny {
		panic("metrics: RenderASCII dimension mismatch")
	}
	st := Stats(field)
	span := st.Max - st.Min
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "min=%.4g max=%.4g mean=%.4g\n", st.Min, st.Max, st.Mean)
	for j := ny - 1; j >= 0; j-- {
		for i := 0; i < nx; i++ {
			v := (field[j*nx+i] - st.Min) / span
			idx := int(v * float64(len(asciiRamp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(asciiRamp) {
				idx = len(asciiRamp) - 1
			}
			b.WriteByte(asciiRamp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderPGM encodes the field as a binary-free plain PGM (P2) image with
// 255 gray levels, row j=ny-1 first (north up).
func RenderPGM(field []float64, nx, ny int) []byte {
	if len(field) != nx*ny {
		panic("metrics: RenderPGM dimension mismatch")
	}
	st := Stats(field)
	span := st.Max - st.Min
	if span == 0 {
		span = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "P2\n%d %d\n255\n", nx, ny)
	for j := ny - 1; j >= 0; j-- {
		for i := 0; i < nx; i++ {
			g := int((field[j*nx+i] - st.Min) / span * 255)
			if g < 0 {
				g = 0
			}
			if g > 255 {
				g = 255
			}
			fmt.Fprintf(&b, "%d ", g)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
