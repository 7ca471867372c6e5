// Package physics models the mechanics of a MEMS media sled: a
// spring-mounted mass pulled by electrostatic comb actuators, as described
// in §2 of Griffin et al. (CMU-CS-00-136) and the companion modeling paper
// (Griffin/Schlosser/Ganger/Nagle, SIGMETRICS 2000).
//
// The sled obeys
//
//	ẍ = u·a − ω²·x,   u ∈ {−1, +1}
//
// where a is the actuator acceleration and the linear spring term reaches
// SpringFactor·a at ±HalfRange (so ω² = SpringFactor·a/HalfRange). Seeks
// are time-optimal bang-bang maneuvers: full acceleration toward the
// target followed by full deceleration. Because each control phase is a
// constant-force harmonic oscillator, the state traces a circle in
// (x, v/ω) phase space and the switch point can be found in closed form as
// the intersection of two circles — no numerical integration is needed on
// the simulation fast path.
//
// All quantities use SI units (meters, seconds); callers convert to the
// simulator's milliseconds at the device layer.
package physics

import (
	"fmt"
	"math"
)

// Sled describes the mechanical parameters of a media sled axis. The same
// parameters are used for the X (cross-track) and Y (along-track) axes.
type Sled struct {
	// Accel is the acceleration applied by the actuators, m/s²
	// (803.6 m/s² in the paper's Table 1).
	Accel float64

	// SpringFactor is the fraction of Accel exerted by the spring
	// suspension at full displacement (±HalfRange). The paper uses 75%.
	// Zero disables the spring term.
	SpringFactor float64

	// HalfRange is the maximum sled displacement from center, in meters.
	// The paper's 100 µm total mobility gives 50 µm.
	HalfRange float64
}

// Omega returns the angular frequency ω of the constant-force oscillator
// induced by the spring, in rad/s. It is zero when the sled has no spring
// term.
func (s *Sled) Omega() float64 {
	if s.SpringFactor == 0 {
		return 0
	}
	return math.Sqrt(s.SpringFactor * s.Accel / s.HalfRange)
}

// Plan is a two-phase bang-bang control plan: apply control U1 (±1) for T1
// seconds, then U2 for T2 seconds.
type Plan struct {
	U1 int
	T1 float64
	U2 int
	T2 float64
}

// Total returns the plan's total duration in seconds.
func (p Plan) Total() float64 { return p.T1 + p.T2 }

const twoPi = 2 * math.Pi

// angleCW returns the clockwise angular distance from angle `from` to
// angle `to`, in [0, 2π), for angles in [−π, π] as math.Atan2 returns
// them. Their difference lies in [−2π, 2π], so one reduction step gives
// math.Mod(from−to, 2π) (then shifted into [0, 2π)) bit for bit,
// including the signed zeros Mod returns at ±2π.
func angleCW(from, to float64) float64 {
	d := from - to
	switch {
	case d == twoPi || d == -twoPi:
		return math.Copysign(0, d)
	case d < 0:
		return d + twoPi
	}
	return d
}

// SeekPlan computes the time-optimal two-phase bang-bang plan moving the
// sled from state (x0, v0) to state (x1, v1). The boolean result reports
// whether a two-phase plan exists; for the parameter ranges of MEMS-based
// storage devices (HalfRange·SpringFactor < equilibrium offset) it does
// for every state inside the travel at the speeds seeks reach, but callers
// must handle false (SeekTime then composes the maneuver through rest).
func (s *Sled) SeekPlan(x0, v0, x1, v1 float64) (Plan, bool) {
	if x0 == x1 && v0 == v1 {
		return Plan{U1: 1, U2: -1}, true
	}
	if s.Omega() == 0 {
		return s.seekPlanNoSpring(x0, v0, x1, v1)
	}
	return s.seekPlanSpring(x0, v0, x1, v1)
}

// seekPlanNoSpring solves the classical double-integrator minimum-time
// problem (ẍ = ±a).
func (s *Sled) seekPlanNoSpring(x0, v0, x1, v1 float64) (Plan, bool) {
	a := s.Accel
	best := Plan{}
	found := false
	// Strategy +a then −a: peak velocity vs ≥ max(v0, v1).
	if vs2 := (v0*v0+v1*v1)/2 + a*(x1-x0); vs2 >= 0 {
		vs := math.Sqrt(vs2)
		t1 := (vs - v0) / a
		t2 := (vs - v1) / a
		if t1 >= -1e-15 && t2 >= -1e-15 {
			best = Plan{U1: 1, T1: math.Max(t1, 0), U2: -1, T2: math.Max(t2, 0)}
			found = true
		}
	}
	// Strategy −a then +a: valley velocity vs ≤ min(v0, v1).
	if vs2 := (v0*v0+v1*v1)/2 - a*(x1-x0); vs2 >= 0 {
		vs := -math.Sqrt(vs2)
		t1 := (v0 - vs) / a
		t2 := (v1 - vs) / a
		if t1 >= -1e-15 && t2 >= -1e-15 {
			p := Plan{U1: -1, T1: math.Max(t1, 0), U2: 1, T2: math.Max(t2, 0)}
			if !found || p.Total() < best.Total() {
				best = p
				found = true
			}
		}
	}
	return best, found
}

// seekPlanSpring solves the minimum-time problem for the constant-force
// harmonic oscillator by intersecting the phase-space circles of the two
// control phases.
func (s *Sled) seekPlanSpring(x0, v0, x1, v1 float64) (Plan, bool) {
	w := s.Omega()
	a := s.Accel
	best := Plan{}
	found := false
	for _, u1 := range []int{1, -1} {
		u2 := -u1
		c1 := float64(u1) * a / (w * w)
		c2 := float64(u2) * a / (w * w)
		// Circle 1 carries the start state, circle 2 the target state,
		// both in (x, v/ω) coordinates where motion is clockwise at ω.
		r1 := math.Hypot(x0-c1, v0/w)
		r2 := math.Hypot(x1-c2, v1/w)
		xs, ws2 := switchPoint(c1, c2, r1, r2)
		if ws2 < 0 {
			if ws2 > -1e-9*r1*r1 {
				ws2 = 0 // tangent circles within floating-point noise
			} else {
				continue // this strategy cannot reach the target
			}
		}
		wsAbs := math.Sqrt(ws2)
		th0 := math.Atan2(v0/w, x0-c1)
		tht := math.Atan2(v1/w, x1-c2)
		for _, wsv := range []float64{wsAbs, -wsAbs} {
			t1, t2 := springArcs(w, c1, c2, xs, wsv, th0, tht)
			p := Plan{U1: u1, T1: t1, U2: u2, T2: t2}
			if !found || p.Total() < best.Total() {
				best = p
				found = true
			}
			if wsAbs == 0 {
				break // ±0 are the same intersection
			}
		}
	}
	return best, found
}

// switchPoint intersects circle 1 (centre c1, radius r1) with circle 2
// (centre c2, radius r2) in (x, v/ω) phase space, subtracting the circle
// equations for the abscissa xs. ws2 is the squared ordinate there:
// negative when the circles do not meet.
func switchPoint(c1, c2, r1, r2 float64) (xs, ws2 float64) {
	denom := 2 * (c2 - c1)
	xs = (r1*r1 - r2*r2 - c1*c1 + c2*c2) / denom
	return xs, r1*r1 - (xs-c1)*(xs-c1)
}

// springArcs returns the durations of the two control arcs of a plan
// that leaves angle th0 on circle 1 (centre c1), switches at (xs, wsv)
// onto circle 2 (centre c2) and follows it to angle tht.
func springArcs(w, c1, c2, xs, wsv, th0, tht float64) (t1, t2 float64) {
	thS1 := math.Atan2(wsv, xs-c1)
	thS2 := math.Atan2(wsv, xs-c2)
	t1 = angleCW(th0, thS1) / w
	t2 = angleCW(thS2, tht) / w
	// Snap near-full-circle phases caused by floating-point noise when
	// the start or target coincides with the switch point.
	if twoPi-t1*w < 1e-9 {
		t1 = 0
	}
	if twoPi-t2*w < 1e-9 {
		t2 = 0
	}
	return t1, t2
}

// RestSeekTime returns the time, in seconds, of the rest-to-rest seek
// from x0 to x1. It equals SeekTime(x0, 0, x1, 0) bit for bit, at a
// fraction of the cost; the MEMS device prices every X seek with it.
//
// Between rest states inside the equilibrium offsets ±a/ω², the plan
// seekPlanSpring picks is always the one that first accelerates toward
// the target (u1 = sign(x1−x0)) and switches where the velocity has the
// sign of the move. The kernel evaluates only that candidate, with the
// same float operations. Both circles are centred on the x axis and
// pass through the rest states, so Hypot(p, 0) is |p| and the start and
// target angles are 0 or π: only the two switch-point angles need
// atan2, against eight full atan2 calls in the general solver.
//
// Outside the domain where that argument holds, it defers to SeekTime:
// no spring, x0 or x1 at or beyond ±a/ω², a move of at most 1e-6·a/ω²
// (where the general solver's 2π and tangent snaps can round a
// sub-picometre seek to 0), or circles that do not cross (ws² ≤ 0).
func (s *Sled) RestSeekTime(x0, x1 float64) float64 {
	w := s.Omega()
	if w == 0 {
		return s.SeekTime(x0, 0, x1, 0)
	}
	c := s.Accel / (w * w)
	if !(math.Abs(x0) < c && math.Abs(x1) < c) || math.Abs(x1-x0) <= 1e-6*c {
		return s.SeekTime(x0, 0, x1, 0)
	}
	// Toward +x: accelerate about +c from angle π, brake about −c to
	// angle 0, switching above the axis. Toward −x mirrors it.
	c1, th0, tht, dir := c, math.Pi, 0.0, 1.0
	if x1 < x0 {
		c1, th0, tht, dir = -c, 0, math.Pi, -1
	}
	c2 := -c1
	xs, ws2 := switchPoint(c1, c2, math.Abs(x0-c1), math.Abs(x1-c2))
	if !(ws2 > 0) {
		return s.SeekTime(x0, 0, x1, 0)
	}
	t1, t2 := springArcs(w, c1, c2, xs, dir*math.Sqrt(ws2), th0, tht)
	return t1 + t2
}

// SeekTime returns the time, in seconds, to move the sled from state
// (x0, v0) to state (x1, v1): the minimum over two-phase plans.
//
// States inside the travel, at the speeds seeks reach, always have a
// two-phase plan. A state with more speed than one control arc can
// absorb (several times the peak speed of a full-stroke seek, which the
// device models never produce) has none. Its maneuver is composed of
// closed-form legs through rest instead: brake (x0, v0) to rest, seek
// rest to rest to the point from which braking in reverse ends in
// (x1, v1), and take that reverse leg. That time bounds the optimum from
// above. No leg recurses, so SeekTime always returns, and for finite
// inputs short of float64 overflow the result is finite and
// non-negative.
func (s *Sled) SeekTime(x0, v0, x1, v1 float64) float64 {
	if p, ok := s.SeekPlan(x0, v0, x1, v1); ok {
		return p.Total()
	}
	p, t0 := s.brake(x0, v0)
	// The dynamics are time-reversible under the same control set, so
	// reaching (x1, v1) from rest at q takes as long as braking (x1, −v1)
	// to rest at q.
	q, t1 := s.brake(x1, -v1)
	// brake leaves p and q within ±a/ω² of centre, where a rest-to-rest
	// plan always exists; only non-finite input gets here without one.
	mid, ok := s.SeekPlan(p, 0, q, 0)
	if !ok {
		return math.NaN()
	}
	return t0 + mid.Total() + t1
}

// brake returns where and after how long the sled comes to rest from
// (x, v) with the actuators opposing its motion. A spring sled resting
// beyond the equilibrium offset c = a/ω² cannot be held there; it then
// swings on in half periods, each opposed by the actuators, which land
// it 2c closer to centre on the other side, until it rests within ±c.
func (s *Sled) brake(x, v float64) (rest, t float64) {
	w := s.Omega()
	if w == 0 {
		return x + v*math.Abs(v)/(2*s.Accel), math.Abs(v) / s.Accel
	}
	c := s.Accel / (w * w)
	rest = x
	if v != 0 {
		// The state circles clockwise about cu in (x, v/ω) and first
		// reaches v = 0 on the x axis: at angle 0 from above, at −π
		// from below.
		cu := math.Copysign(c, -v)
		th := math.Atan2(v/w, x-cu)
		r := math.Hypot(x-cu, v/w)
		if v > 0 {
			rest, t = cu+r, th/w
		} else {
			rest, t = cu-r, (th+math.Pi)/w
		}
	}
	if a := math.Abs(rest); a > c {
		k := math.Ceil((a - c) / (2 * c))
		m := a - 2*k*c
		if (rest < 0) != (math.Mod(k, 2) == 1) {
			m = -m
		}
		rest = math.Max(-c, math.Min(c, m))
		t += k * math.Pi / w
	}
	return rest, t
}

// TurnaroundTime returns the time, in seconds, to reverse the sled's
// velocity from v to −v at position y: the "turnaround" of §2.3, used
// between track switches and for repeated access to the same sector. The
// spring restoring force makes this a function of both position and
// direction of motion (§2.4.4).
func (s *Sled) TurnaroundTime(y, v float64) float64 {
	return s.SeekTime(y, v, y, -v)
}

// Evolve advances state (x, v) under constant control u for t seconds and
// returns the new state. This is the exact closed-form solution used by
// SeekPlan; it is exported so device models and tests can reconstruct
// trajectories.
func (s *Sled) Evolve(x, v float64, u int, t float64) (x2, v2 float64) {
	w := s.Omega()
	ua := float64(u) * s.Accel
	if w == 0 {
		return x + v*t + 0.5*ua*t*t, v + ua*t
	}
	c := ua / (w * w)
	dx := x - c
	sin, cos := math.Sincos(w * t)
	return c + dx*cos + v/w*sin, -dx*w*sin + v*cos
}

// Apply runs plan p from state (x, v) using the closed-form evolution and
// returns the final state. Tests use it to verify that plans reach their
// targets.
func (s *Sled) Apply(x, v float64, p Plan) (x2, v2 float64) {
	x, v = s.Evolve(x, v, p.U1, p.T1)
	return s.Evolve(x, v, p.U2, p.T2)
}

// Integrate is a reference RK4 integrator for the sled ODE under plan p,
// stepping at dt. It exists to cross-validate the closed-form solution and
// is not used on the simulation fast path.
func (s *Sled) Integrate(x, v float64, p Plan, dt float64) (x2, v2 float64) {
	x, v = s.integratePhase(x, v, p.U1, p.T1, dt)
	return s.integratePhase(x, v, p.U2, p.T2, dt)
}

func (s *Sled) integratePhase(x, v float64, u int, t, dt float64) (float64, float64) {
	w2 := 0.0
	if s.SpringFactor != 0 {
		w2 = s.SpringFactor * s.Accel / s.HalfRange
	}
	acc := func(x, v float64) float64 { return float64(u)*s.Accel - w2*x }
	for t > 0 {
		h := dt
		if h > t {
			h = t
		}
		// Classical RK4 on the system (ẋ = v, v̇ = acc).
		k1x, k1v := v, acc(x, v)
		k2x, k2v := v+h/2*k1v, acc(x+h/2*k1x, v+h/2*k1v)
		k3x, k3v := v+h/2*k2v, acc(x+h/2*k2x, v+h/2*k2v)
		k4x, k4v := v+h*k3v, acc(x+h*k3x, v+h*k3v)
		x += h / 6 * (k1x + 2*k2x + 2*k3x + k4x)
		v += h / 6 * (k1v + 2*k2v + 2*k3v + k4v)
		t -= h
	}
	return x, v
}

// String implements fmt.Stringer for diagnostics.
func (p Plan) String() string {
	return fmt.Sprintf("plan{u=%+d %.3gs, u=%+d %.3gs}", p.U1, p.T1, p.U2, p.T2)
}
