// Package physics provides seawater physical relations used to couple
// the ocean state to acoustics: sound speed (Mackenzie 1981) and
// Thorp's attenuation formula for acoustic absorption.
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

// Gravity is the gravitational acceleration (m/s²).
const Gravity = 9.81

// OmegaEarth is Earth's rotation rate (rad/s).
const OmegaEarth = 7.2921e-5

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
