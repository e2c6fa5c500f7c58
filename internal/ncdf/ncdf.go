// Package ncdf is a minimal self-describing gridded-array dataset —
// the stdlib stand-in for NetCDF, which the paper's infrastructure uses
// for all model inputs and outputs ("the shared input files can be read
// remotely from OpenDAP servers ... using the NetCDF-OpenDAP library").
//
// A File holds named dimensions, attributed variables over those
// dimensions, and float64 data, in memory only: opendap serves it and
// nothing reads or writes a file form. Variables support strided
// hyperslab subsetting — the operation the OpenDAP constraint system
// (internal/opendap) exposes over HTTP.
package ncdf

import "fmt"

// Dimension is a named axis length.
type Dimension struct {
	Name string
	Len  int
}

// Variable is a float64 array over named dimensions with attributes.
type Variable struct {
	Name  string
	Dims  []string
	Attrs map[string]string
	Data  []float64
}

// File is a collection of dimensions and variables plus global attributes.
type File struct {
	Dims  []Dimension
	Vars  []Variable
	Attrs map[string]string
}

// New returns an empty file.
func New() *File {
	return &File{Attrs: make(map[string]string)}
}

// AddDim registers a dimension; duplicate names or non-positive lengths
// are rejected.
func (f *File) AddDim(name string, length int) error {
	if length <= 0 {
		return fmt.Errorf("ncdf: dimension %q has non-positive length %d", name, length)
	}
	for _, d := range f.Dims {
		if d.Name == name {
			return fmt.Errorf("ncdf: duplicate dimension %q", name)
		}
	}
	f.Dims = append(f.Dims, Dimension{Name: name, Len: length})
	return nil
}

// Dim returns the named dimension.
func (f *File) Dim(name string) (Dimension, bool) {
	for _, d := range f.Dims {
		if d.Name == name {
			return d, true
		}
	}
	return Dimension{}, false
}

// AddVar registers a variable; its data length must equal the product of
// its dimension lengths, and all dimensions must exist.
func (f *File) AddVar(name string, dims []string, attrs map[string]string, data []float64) error {
	for _, v := range f.Vars {
		if v.Name == name {
			return fmt.Errorf("ncdf: duplicate variable %q", name)
		}
	}
	want := 1
	for _, dn := range dims {
		d, ok := f.Dim(dn)
		if !ok {
			return fmt.Errorf("ncdf: variable %q uses unknown dimension %q", name, dn)
		}
		want *= d.Len
	}
	if len(data) != want {
		return fmt.Errorf("ncdf: variable %q has %d values, dimensions imply %d", name, len(data), want)
	}
	if attrs == nil {
		attrs = map[string]string{}
	}
	f.Vars = append(f.Vars, Variable{Name: name, Dims: dims, Attrs: attrs, Data: data})
	return nil
}

// Var returns the named variable.
func (f *File) Var(name string) (*Variable, bool) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], true
		}
	}
	return nil, false
}

// Shape returns the variable's dimension lengths, resolved against f.
func (f *File) Shape(v *Variable) []int {
	shape := make([]int, len(v.Dims))
	for i, dn := range v.Dims {
		d, _ := f.Dim(dn)
		shape[i] = d.Len
	}
	return shape
}

// HyperSlab extracts the strided sub-array start[i] : start[i]+count[i]
// along every axis — the DAP array constraint. Stride is 1 (extend with
// a stride slice if ever needed).
func (f *File) HyperSlab(v *Variable, start, count []int) ([]float64, error) {
	shape := f.Shape(v)
	if len(start) != len(shape) || len(count) != len(shape) {
		return nil, fmt.Errorf("ncdf: slab rank %d/%d, variable rank %d", len(start), len(count), len(shape))
	}
	outLen := 1
	for i := range shape {
		// count > shape-start, not start+count > shape: the sum wraps.
		if start[i] < 0 || count[i] <= 0 || count[i] > shape[i]-start[i] {
			return nil, fmt.Errorf("ncdf: slab [%d,+%d) outside axis %d of length %d", start[i], count[i], i, shape[i])
		}
		outLen *= count[i]
	}
	// Row-major strides.
	strides := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		strides[i] = acc
		acc *= shape[i]
	}
	out := make([]float64, 0, outLen)
	idx := make([]int, len(shape))
	for {
		off := 0
		for i := range idx {
			off += (start[i] + idx[i]) * strides[i]
		}
		out = append(out, v.Data[off])
		// Odometer increment.
		k := len(idx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < count[k] {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out, nil
}

// DDS renders a dataset descriptor (the OpenDAP "DDS" analog): a stable,
// human-readable structure listing.
func (f *File) DDS(name string) string {
	out := fmt.Sprintf("Dataset {\n")
	for _, v := range f.Vars {
		out += fmt.Sprintf("  Float64 %s", v.Name)
		for _, dn := range v.Dims {
			d, _ := f.Dim(dn)
			out += fmt.Sprintf("[%s = %d]", dn, d.Len)
		}
		out += ";\n"
	}
	out += fmt.Sprintf("} %s;\n", name)
	return out
}
