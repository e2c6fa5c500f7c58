package physics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSoundSpeedKnownValue(t *testing.T) {
	// Anchor value: at T=0°C, S=35 PSU, D=0 m every correction term
	// vanishes and the formula returns its constant, 1448.96 m/s.
	if got := SoundSpeedMackenzie(0, 35, 0); math.Abs(got-1448.96) > 1e-9 {
		t.Fatalf("SoundSpeed(0,35,0) = %v, want 1448.96", got)
	}
	// Mid-depth check: T=10°C, S=35, D=1000 m evaluates to ~1506.26 m/s.
	if got := SoundSpeedMackenzie(10, 35, 1000); math.Abs(got-1506.26) > 0.05 {
		t.Fatalf("SoundSpeed(10,35,1000) = %v, want ~1506.26", got)
	}
}

func TestSoundSpeedSurface(t *testing.T) {
	// Typical surface value near 1500 m/s for 13°C, 33.5 PSU.
	got := SoundSpeedMackenzie(13, 33.5, 0)
	if got < 1480 || got > 1520 {
		t.Fatalf("surface sound speed = %v, implausible", got)
	}
}

func TestSoundSpeedIncreasesWithTemperature(t *testing.T) {
	if err := quick.Check(func(raw uint8) bool {
		temp := float64(raw%25) + 1 // 1..25°C
		c1 := SoundSpeedMackenzie(temp, 34, 100)
		c2 := SoundSpeedMackenzie(temp+1, 34, 100)
		return c2 > c1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoundSpeedIncreasesWithDepthAtFixedT(t *testing.T) {
	c1 := SoundSpeedMackenzie(5, 34, 100)
	c2 := SoundSpeedMackenzie(5, 34, 2000)
	if c2 <= c1 {
		t.Fatalf("pressure term should raise sound speed: %v vs %v", c1, c2)
	}
}

func TestThorpAttenuationShape(t *testing.T) {
	// Monotone increasing in frequency and positive.
	prev := 0.0
	for _, f := range []float64{0.1, 0.5, 1, 5, 10, 50, 100} {
		a := ThorpAttenuation(f)
		if a <= prev {
			t.Fatalf("attenuation not increasing at %v kHz: %v <= %v", f, a, prev)
		}
		prev = a
	}
	// Sanity: ~1 kHz absorption is a fraction of a dB/km.
	if a := ThorpAttenuation(1); a < 0.01 || a > 0.2 {
		t.Fatalf("Thorp(1 kHz) = %v dB/km, implausible", a)
	}
}

func TestCoriolis(t *testing.T) {
	if math.Abs(Coriolis(0)) > 1e-12 {
		t.Fatal("Coriolis at equator must vanish")
	}
	f := Coriolis(36.6) // Monterey Bay
	if f < 8e-5 || f > 9.5e-5 {
		t.Fatalf("Coriolis(36.6°) = %v, implausible", f)
	}
	if Coriolis(-36.6) >= 0 {
		t.Fatal("southern hemisphere must be negative")
	}
}
