// Package physics provides seawater physical relations used to couple
// the ocean state to acoustics: sound speed (Mackenzie 1981), a
// linearized equation of state for density, and Thorp's attenuation
// formula for acoustic absorption.
package physics

import "math"

// SoundSpeedMackenzie returns the speed of sound in seawater (m/s) from
// temperature T (°C), salinity S (PSU) and depth D (m), using the
// nine-term Mackenzie (1981) equation. Valid for -2..30 °C, 25..40 PSU,
// 0..8000 m.
func SoundSpeedMackenzie(t, s, d float64) float64 {
	return 1448.96 +
		4.591*t -
		5.304e-2*t*t +
		2.374e-4*t*t*t +
		1.340*(s-35) +
		1.630e-2*d +
		1.675e-7*d*d -
		1.025e-2*t*(s-35) -
		7.139e-13*t*d*d*d
}

// Reference state for the linearized equation of state.
const (
	RhoRef = 1025.0 // kg/m³
	TRef   = 12.0   // °C
	SRef   = 33.5   // psu
	// AlphaT is the thermal expansion coefficient (1/°C).
	AlphaT = 2.0e-4
	// BetaS is the haline contraction coefficient (1/psu).
	BetaS   = 7.6e-4
	Gravity = 9.81 // m/s²
)

// OmegaEarth is Earth's rotation rate (rad/s).
const OmegaEarth = 7.2921e-5

// Density returns seawater density (kg/m³) from a linearized equation of
// state about the California-coast reference values above. Adequate for
// the mesoscale dynamics window the paper targets.
func Density(t, s float64) float64 {
	return RhoRef * (1 - AlphaT*(t-TRef) + BetaS*(s-SRef))
}

// ThorpAttenuation returns the volume absorption coefficient in dB/km at
// frequency f in kHz (Thorp 1967 with the low-frequency correction term).
func ThorpAttenuation(fKHz float64) float64 {
	f2 := fKHz * fKHz
	return 0.11*f2/(1+f2) + 44*f2/(4100+f2) + 2.75e-4*f2 + 0.003
}

// Coriolis returns the Coriolis parameter f = 2 Ω sin(lat) (1/s) for a
// latitude in degrees.
func Coriolis(latDeg float64) float64 {
	return 2 * OmegaEarth * math.Sin(latDeg*math.Pi/180)
}
