package physics

import (
	"math"
	"testing"
)

// FuzzSeekTime checks that SeekTime is total over sled parameters around
// the device generations (803.6–1500 m/s², 75% springs, ±50 µm travel)
// and over arbitrary states, inside the travel or up to four travels out,
// at up to twenty times the sled's natural speed √(a·HalfRange): the call
// returns, the result is finite and non-negative, and whenever a direct
// two-phase plan exists, applying it lands on the target.
func FuzzSeekTime(f *testing.F) {
	f.Add(uint16(0), uint16(52000), uint16(24000), int32(-1<<29), int32(0), int32(1<<29), int32(0))
	f.Add(uint16(13000), uint16(52000), uint16(24000), int32(0), int32(1<<23), int32(0), int32(-1<<23))
	f.Add(uint16(65535), uint16(0), uint16(65535), int32(1<<30), int32(1<<31-1), int32(-1<<31), int32(-1<<30))
	f.Add(uint16(30000), uint16(65535), uint16(0), int32(1<<31-1), int32(0), int32(-1<<31), int32(0))
	f.Fuzz(func(t *testing.T, accelQ, springQ, halfQ uint16, x0Q, v0Q, x1Q, v1Q int32) {
		s := &Sled{
			Accel:        500 + 1500*float64(accelQ)/math.MaxUint16,
			SpringFactor: 0.95 * float64(springQ) / math.MaxUint16,
			HalfRange:    20e-6 + 80e-6*float64(halfQ)/math.MaxUint16,
		}
		pos := func(q int32) float64 { return 4 * s.HalfRange * float64(q) / math.MaxInt32 }
		vel := func(q int32) float64 { return 20 * math.Sqrt(s.Accel*s.HalfRange) * float64(q) / math.MaxInt32 }
		x0, v0, x1, v1 := pos(x0Q), vel(v0Q), pos(x1Q), vel(v1Q)

		got := s.SeekTime(x0, v0, x1, v1)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("%+v: SeekTime(%g, %g, %g, %g) = %g", *s, x0, v0, x1, v1, got)
		}
		p, ok := s.SeekPlan(x0, v0, x1, v1)
		if !ok {
			return
		}
		if p.Total() != got {
			t.Fatalf("%+v: SeekTime %g differs from its direct plan %v", *s, got, p)
		}
		// Tolerances scale with the maneuver: the tangent snap in
		// seekPlanSpring admits a relative switch-point error of √1e-9.
		xs := s.HalfRange + math.Abs(x0) + math.Abs(x1)
		vs := math.Abs(v0) + math.Abs(v1) + math.Sqrt(s.Accel*xs)
		xf, vf := s.Apply(x0, v0, p)
		if math.Abs(xf-x1) > 1e-4*(xs+vs*got) || math.Abs(vf-v1) > 1e-4*(vs+s.Accel*got) {
			t.Fatalf("%+v: plan %v from (%g, %g) lands at (%g, %g), want (%g, %g)",
				*s, p, x0, v0, xf, vf, x1, v1)
		}
	})
}
