package physics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperSled returns a sled with the default parameters of Table 1 of the
// paper: 803.6 m/s² acceleration, 75% spring factor, ±50 µm travel.
func paperSled() *Sled {
	return &Sled{Accel: 803.6, SpringFactor: 0.75, HalfRange: 50e-6}
}

func noSpringSled() *Sled {
	return &Sled{Accel: 803.6, SpringFactor: 0, HalfRange: 50e-6}
}

const accessSpeed = 0.028 // m/s, 700 Kbit/s at 40 nm per bit

func TestOmega(t *testing.T) {
	s := paperSled()
	want := math.Sqrt(0.75 * 803.6 / 50e-6)
	if got := s.Omega(); math.Abs(got-want) > 1e-9 {
		t.Errorf("Omega = %g, want %g", got, want)
	}
	if got := noSpringSled().Omega(); got != 0 {
		t.Errorf("no-spring Omega = %g, want 0", got)
	}
}

func TestZeroSeek(t *testing.T) {
	for _, s := range []*Sled{paperSled(), noSpringSled()} {
		if got := s.SeekTime(10e-6, 0.01, 10e-6, 0.01); got != 0 {
			t.Errorf("identical states should take 0 time, got %g", got)
		}
	}
}

func TestNoSpringRestToRest(t *testing.T) {
	// Without a spring, a rest-to-rest seek of distance d takes 2·sqrt(d/a).
	s := noSpringSled()
	for _, d := range []float64{1e-6, 10e-6, 50e-6, 100e-6} {
		want := 2 * math.Sqrt(d/s.Accel)
		if got := s.SeekTime(0, 0, d, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("d=%g: seek=%g, want %g", d, got, want)
		}
		// Symmetric in direction.
		if got := s.SeekTime(0, 0, -d, 0); math.Abs(got-want) > 1e-12 {
			t.Errorf("d=-%g: seek=%g, want %g", d, got, want)
		}
	}
}

func TestNoSpringTurnaround(t *testing.T) {
	// Without a spring, reversing velocity v takes exactly 2v/a anywhere.
	s := noSpringSled()
	want := 2 * accessSpeed / s.Accel
	for _, y := range []float64{-50e-6, 0, 30e-6} {
		if got := s.TurnaroundTime(y, accessSpeed); math.Abs(got-want) > 1e-12 {
			t.Errorf("turnaround at y=%g: %g, want %g", y, got, want)
		}
	}
}

func TestSpringTurnaroundAtCenter(t *testing.T) {
	// At the sled center the spring force is negligible over the tiny
	// turnaround excursion (~0.5 nm), so the time approaches 2v/a
	// ≈ 0.0697 ms — the paper's "0.063 ms average" regime (Table 2 note).
	s := paperSled()
	got := s.TurnaroundTime(0, accessSpeed)
	want := 2 * accessSpeed / s.Accel
	if math.Abs(got-want) > want*0.01 {
		t.Errorf("center turnaround = %g s, want ≈ %g s", got, want)
	}
}

func TestSpringTurnaroundAsymmetry(t *testing.T) {
	// §2.4.4: turnarounds near the edges take either less time or more,
	// depending on the direction of sled motion. At +edge, reversing
	// outward motion (spring assists both phases) must beat reversing
	// inward motion (spring opposes), and the center case sits between.
	s := paperSled()
	edge := s.HalfRange
	assisted := s.TurnaroundTime(edge, accessSpeed) // moving outward, turn back
	opposed := s.TurnaroundTime(edge, -accessSpeed) // moving inward, turn out
	center := s.TurnaroundTime(0, accessSpeed)
	if !(assisted < center && center < opposed) {
		t.Errorf("want assisted < center < opposed, got %g, %g, %g",
			assisted, center, opposed)
	}
	// Effective acceleration at the edge is (1±0.75)·a, so the ratio of
	// opposed to assisted turnaround should be near (1.75/0.25) = 7 for
	// these tiny excursions.
	ratio := opposed / assisted
	if ratio < 5 || ratio > 9 {
		t.Errorf("opposed/assisted ratio = %g, want ≈ 7", ratio)
	}
}

func TestSpringEdgeSeeksSlower(t *testing.T) {
	// §5.1 / Fig. 9: short seeks near the edges take longer than the same
	// seeks near the center, because the springs reduce the effective
	// actuator force there.
	s := paperSled()
	d := 8e-6 // an 8 µm hop
	center := s.SeekTime(-d/2, 0, d/2, 0)
	edgeOut := s.SeekTime(s.HalfRange-d, 0, s.HalfRange, 0)
	if edgeOut <= center {
		t.Errorf("edge seek (%g) should be slower than center seek (%g)", edgeOut, center)
	}
}

func TestFullStrokeSeekTime(t *testing.T) {
	// Full-stroke rest-to-rest with the spring assisting both the launch
	// (from −edge) and the arrival (into +edge) should be faster than the
	// springless 2·sqrt(d/a) time, and in the ballpark derived in
	// DESIGN.md (≈ 0.55 ms vs 0.71 ms).
	s := paperSled()
	d := 2 * s.HalfRange
	withSpring := s.SeekTime(-s.HalfRange, 0, s.HalfRange, 0)
	noSpring := 2 * math.Sqrt(d/s.Accel)
	if withSpring >= noSpring {
		t.Errorf("spring-assisted full stroke %g should beat %g", withSpring, noSpring)
	}
	if withSpring < 0.4e-3 || withSpring > 0.7e-3 {
		t.Errorf("full stroke = %g s, expected ≈ 0.55 ms", withSpring)
	}
}

func TestPlanReachesTargetClosedForm(t *testing.T) {
	// Property: applying the plan with the exact evolution lands on the
	// target state.
	s := paperSled()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		x0 := (rng.Float64()*2 - 1) * s.HalfRange
		x1 := (rng.Float64()*2 - 1) * s.HalfRange
		v0 := (rng.Float64()*2 - 1) * 5 * accessSpeed
		v1 := (rng.Float64()*2 - 1) * 5 * accessSpeed
		p, ok := s.SeekPlan(x0, v0, x1, v1)
		if !ok {
			t.Fatalf("no plan for (%g,%g)→(%g,%g)", x0, v0, x1, v1)
		}
		xf, vf := s.Apply(x0, v0, p)
		if math.Abs(xf-x1) > 1e-9 || math.Abs(vf-v1) > 1e-6 {
			t.Fatalf("plan %v misses target: (%g,%g)→(%g,%g), got (%g,%g)",
				p, x0, v0, x1, v1, xf, vf)
		}
	}
}

func TestPlanReachesTargetRK4(t *testing.T) {
	// Cross-validate the closed-form oscillator solution against a dumb
	// RK4 integration of the same ODE.
	for _, s := range []*Sled{paperSled(), noSpringSled()} {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			x0 := (rng.Float64()*2 - 1) * s.HalfRange
			x1 := (rng.Float64()*2 - 1) * s.HalfRange
			v0 := (rng.Float64()*2 - 1) * 3 * accessSpeed
			v1 := (rng.Float64()*2 - 1) * 3 * accessSpeed
			p, ok := s.SeekPlan(x0, v0, x1, v1)
			if !ok {
				t.Fatalf("no plan for (%g,%g)→(%g,%g)", x0, v0, x1, v1)
			}
			xf, vf := s.Integrate(x0, v0, p, 1e-7)
			if math.Abs(xf-x1) > 5e-9 || math.Abs(vf-v1) > 5e-5 {
				t.Fatalf("RK4 disagrees for plan %v: want (%g,%g), got (%g,%g)",
					p, x1, v1, xf, vf)
			}
		}
	}
}

func TestSeekTimeNonNegativeAndSymmetric(t *testing.T) {
	s := paperSled()
	f := func(a, b int16) bool {
		x0 := float64(a) / math.MaxInt16 * s.HalfRange
		x1 := float64(b) / math.MaxInt16 * s.HalfRange
		t1 := s.SeekTime(x0, 0, x1, 0)
		t2 := s.SeekTime(-x0, 0, -x1, 0) // mirror symmetry of the spring
		t3 := s.SeekTime(x1, 0, x0, 0)   // reversal symmetry at rest
		return t1 >= 0 && math.Abs(t1-t2) < 1e-12 && math.Abs(t1-t3) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSeekTimeMonotonicInDistanceFromCenter(t *testing.T) {
	// From rest at center, seeking farther should never be faster.
	s := paperSled()
	prev := 0.0
	for d := 0.0; d <= s.HalfRange; d += s.HalfRange / 200 {
		cur := s.SeekTime(0, 0, d, 0)
		if cur+1e-12 < prev {
			t.Fatalf("seek time decreased: d=%g t=%g prev=%g", d, cur, prev)
		}
		prev = cur
	}
}

func TestEvolveMatchesIntegrate(t *testing.T) {
	s := paperSled()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		x := (rng.Float64()*2 - 1) * s.HalfRange
		v := (rng.Float64()*2 - 1) * 0.1
		u := 1
		if rng.Intn(2) == 0 {
			u = -1
		}
		dt := rng.Float64() * 5e-4
		x1, v1 := s.Evolve(x, v, u, dt)
		x2, v2 := s.integratePhase(x, v, u, dt, 1e-7)
		if math.Abs(x1-x2) > 1e-9 || math.Abs(v1-v2) > 1e-5 {
			t.Fatalf("evolve (%g,%g) vs RK4 (%g,%g)", x1, v1, x2, v2)
		}
	}
}

func TestSeekFallbackComposition(t *testing.T) {
	// A direct seek is never slower than stopping at the midpoint on the
	// way. TestSeekTimeComposedBeyondTravel covers the composed path
	// SeekTime takes when no direct plan exists.
	s := paperSled()
	x0, x1 := -40e-6, 40e-6
	direct := s.SeekTime(x0, 0, x1, 0)
	viaMid := s.SeekTime(x0, 0, 0, 0) + s.SeekTime(0, 0, x1, 0)
	if direct > viaMid+1e-12 {
		t.Errorf("direct seek (%g) should not exceed stop-at-midpoint (%g)", direct, viaMid)
	}
}

func TestSeekTimeComposedBeyondTravel(t *testing.T) {
	// States far faster than any seek have no two-phase plan; SeekTime
	// must still return a finite time, composed through rest.
	for _, st := range [][4]float64{
		{0, 10, 0, 0},
		{10e-6, -3, -20e-6, 4},
		{30e-6, 0, 0, -10},
	} {
		s := paperSled()
		if _, ok := s.SeekPlan(st[0], st[1], st[2], st[3]); ok {
			t.Fatalf("%v: expected no direct plan", st)
		}
		got := s.SeekTime(st[0], st[1], st[2], st[3])
		if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
			t.Errorf("%v: SeekTime = %g, want finite and positive", st, got)
		}
	}
}

func TestBrakeMatchesOpposingControl(t *testing.T) {
	// brake's closed form must agree with integrating the policy it
	// describes: actuators always opposing the motion, for the time it
	// reports, ends at rest at the position it reports.
	for _, s := range []*Sled{paperSled(), noSpringSled()} {
		for _, st := range [][2]float64{{0, 1}, {10e-6, -3}, {-30e-6, 0.5}, {180e-6, 0}, {-5e-6, 0.05}} {
			rest, dur := s.brake(st[0], st[1])
			x, v := st[0], st[1]
			const dt = 1e-8
			for left := dur; left > 0; left -= dt {
				u := 1
				if v > 0 || (v == 0 && x < 0) {
					u = -1
				}
				x, v = s.integratePhase(x, v, u, math.Min(dt, left), dt)
			}
			if math.Abs(x-rest) > 1e-9 || math.Abs(v) > 1e-4 {
				t.Errorf("%+v from %v: brake says rest at %g after %g s, integration ends at (%g, %g)",
					*s, st, rest, dur, x, v)
			}
		}
	}
}

func TestAngleCWMatchesMod(t *testing.T) {
	// The one-step reduction must be math.Mod's result bit for bit for
	// every pair of atan2 outputs, signed zeros at ±2π included.
	ref := func(from, to float64) float64 {
		d := math.Mod(from-to, twoPi)
		if d < 0 {
			d += twoPi
		}
		return d
	}
	edges := []float64{-math.Pi, math.Nextafter(-math.Pi, 0), -math.Pi / 2, math.Copysign(0, -1), 0,
		1e-300, math.Pi / 2, math.Nextafter(math.Pi, 0), math.Pi}
	check := func(from, to float64) {
		if got, want := angleCW(from, to), ref(from, to); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("angleCW(%v, %v) = %v, math.Mod reference %v", from, to, got, want)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		check(math.Atan2(rng.NormFloat64(), rng.NormFloat64()), math.Atan2(rng.NormFloat64(), rng.NormFloat64()))
	}
}

func TestRestSeekTimeMatchesSeekTime(t *testing.T) {
	// Inside the kernel's domain and on each fallback: no spring, a
	// point at or beyond a/ω², and moves at or below 1e-6·a/ω².
	paper := paperSled()
	c := paper.Accel / (paper.Omega() * paper.Omega())
	cases := [][2]float64{
		{-40e-6, 40e-6}, {40e-6, -40e-6}, {-50e-6, 50e-6}, {0, 1e-9}, {12e-6, 11e-6},
		{c, 0}, {0, -c}, {2 * c, -3 * c},
		{10e-6, 10e-6}, {10e-6, 10e-6 + 1e-6*c}, {10e-6, 10e-6 - 2e-6*c},
	}
	for _, s := range []*Sled{paper, noSpringSled()} {
		for _, x := range cases {
			if got, want := s.RestSeekTime(x[0], x[1]), s.SeekTime(x[0], 0, x[1], 0); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%+v: RestSeekTime(%g, %g) = %v, SeekTime %v", *s, x[0], x[1], got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		s := &Sled{Accel: 500 + 1500*rng.Float64(), SpringFactor: rng.Float64(), HalfRange: 20e-6 + 80e-6*rng.Float64()}
		x0, x1 := (2*rng.Float64()-1)*s.HalfRange, (2*rng.Float64()-1)*s.HalfRange
		if got, want := s.RestSeekTime(x0, x1), s.SeekTime(x0, 0, x1, 0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%+v: RestSeekTime(%g, %g) = %v, SeekTime %v", *s, x0, x1, got, want)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{U1: 1, T1: 0.001, U2: -1, T2: 0.002}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func BenchmarkSeekSolverClosedForm(b *testing.B) {
	s := paperSled()
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = (rng.Float64()*2 - 1) * s.HalfRange
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.SeekTime(xs[i%1024], 0, xs[(i+7)%1024], 0)
	}
}

var restSeekSink float64

func BenchmarkRestSeekTime(b *testing.B) {
	// Kernel partner of BenchmarkSeekSolverClosedForm on the same moves.
	s := paperSled()
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = (rng.Float64()*2 - 1) * s.HalfRange
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restSeekSink += s.RestSeekTime(xs[i%1024], xs[(i+7)%1024])
	}
}

func BenchmarkSeekSolverRK4Reference(b *testing.B) {
	// Ablation partner for BenchmarkSeekSolverClosedForm: the cost of
	// verifying one plan by numerical integration at 0.1 µs steps.
	s := paperSled()
	p, _ := s.SeekPlan(-40e-6, 0, 40e-6, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = s.Integrate(-40e-6, 0, p, 1e-7)
	}
}
