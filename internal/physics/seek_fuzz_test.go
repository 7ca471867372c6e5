package physics

import (
	"math"
	"testing"
)

// fuzzSled maps fuzz inputs onto sled parameters around the device
// generations (803.6–1500 m/s², 75% springs, ±50 µm travel): 500–2000
// m/s², spring factors 0–0.95 and ±20–100 µm of travel.
func fuzzSled(accelQ, springQ, halfQ uint16) *Sled {
	return &Sled{
		Accel:        500 + 1500*float64(accelQ)/math.MaxUint16,
		SpringFactor: 0.95 * float64(springQ) / math.MaxUint16,
		HalfRange:    20e-6 + 80e-6*float64(halfQ)/math.MaxUint16,
	}
}

// fuzzPos maps q onto a position up to four travels either side of
// centre.
func fuzzPos(s *Sled, q int32) float64 { return 4 * s.HalfRange * float64(q) / math.MaxInt32 }

// FuzzSeekTime checks that SeekTime is total over fuzzSled's sleds and
// over arbitrary states, inside the travel or up to four travels out,
// at up to twenty times the sled's natural speed √(a·HalfRange): the call
// returns, the result is finite and non-negative, and whenever a direct
// two-phase plan exists, both the closed-form evolution and an
// independent RK4 integration of the plan land on the target.
func FuzzSeekTime(f *testing.F) {
	f.Add(uint16(0), uint16(52000), uint16(24000), int32(-1<<29), int32(0), int32(1<<29), int32(0))
	f.Add(uint16(13000), uint16(52000), uint16(24000), int32(0), int32(1<<23), int32(0), int32(-1<<23))
	f.Add(uint16(65535), uint16(0), uint16(65535), int32(1<<30), int32(1<<31-1), int32(-1<<31), int32(-1<<30))
	f.Add(uint16(30000), uint16(65535), uint16(0), int32(1<<31-1), int32(0), int32(-1<<31), int32(0))
	f.Fuzz(func(t *testing.T, accelQ, springQ, halfQ uint16, x0Q, v0Q, x1Q, v1Q int32) {
		s := fuzzSled(accelQ, springQ, halfQ)
		vel := func(q int32) float64 { return 20 * math.Sqrt(s.Accel*s.HalfRange) * float64(q) / math.MaxInt32 }
		x0, v0, x1, v1 := fuzzPos(s, x0Q), vel(v0Q), fuzzPos(s, x1Q), vel(v1Q)

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
		// Replay the plan through RK4 in at least 256 steps of at most
		// 0.05 rad of the spring's phase. RK4's global error on the
		// oscillator grows as (ω·dt)⁴ times the phase ω·T it covers; on
		// the spring-less double integrator it is exact up to rounding.
		w := s.Omega()
		dt := got / 256
		if w > 0 {
			dt = math.Min(dt, 0.05/w)
		}
		if !(dt > 0) {
			return
		}
		tol := 1e-4 + math.Pow(w*dt, 4)*(1+w*got)
		xr, vr := s.Integrate(x0, v0, p, dt)
		if math.Abs(xr-x1) > tol*(xs+vs*got) || math.Abs(vr-v1) > tol*(vs+s.Accel*got) {
			t.Fatalf("%+v: RK4 at dt=%g replays plan %v from (%g, %g) to (%g, %g), want (%g, %g)",
				*s, dt, p, x0, v0, xr, vr, x1, v1)
		}
	})
}

// FuzzRestSeekTime checks the rest-to-rest kernel against the general
// solver bit for bit over fuzzSled's sleds, spring-less ones included,
// and positions up to four travels out. A nonzero shift makes x1 a
// move of the travel scaled by 2^−shift from x0, reaching moves far
// below the kernel's 1e-6·a/ω² cut-off and below one ulp of x0.
func FuzzRestSeekTime(f *testing.F) {
	f.Add(uint16(0), uint16(52000), uint16(24000), int32(-1<<29), int32(1<<29), uint8(0))
	f.Add(uint16(13000), uint16(52000), uint16(24000), int32(1<<30), int32(-1<<28), uint8(0))
	f.Add(uint16(30000), uint16(0), uint16(40000), int32(-1<<27), int32(1<<29), uint8(0))
	f.Add(uint16(65535), uint16(65535), uint16(0), int32(1<<31-1), int32(-1<<31), uint8(0))
	f.Add(uint16(0), uint16(60000), uint16(24000), int32(1<<29), int32(1<<31-1), uint8(20))
	f.Add(uint16(100), uint16(3), uint16(24000), int32(-1<<29), int32(-1<<31), uint8(40))
	// A weak spring and a 6e-14 m move, which the general solver's snaps
	// round to 0: kept only by the kernel's near-equal fallback.
	f.Add(uint16(30077), uint16(81), uint16(39961), int32(-134217795), int32(536870912), uint8(30))
	f.Fuzz(func(t *testing.T, accelQ, springQ, halfQ uint16, x0Q, x1Q int32, shift uint8) {
		s := fuzzSled(accelQ, springQ, halfQ)
		x0, x1 := fuzzPos(s, x0Q), fuzzPos(s, x1Q)
		if shift != 0 {
			x1 = x0 + math.Ldexp(x1, -int(shift%64))
		}
		got, want := s.RestSeekTime(x0, x1), s.SeekTime(x0, 0, x1, 0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: RestSeekTime(%g, %g) = %v, SeekTime = %v", *s, x0, x1, got, want)
		}
	})
}
