// rebuildpolicy.go is the rebuild-pacing plug point of the volume
// regime. RunVolume throttles its background rebuild by idling between
// chunk scans; how long to idle is a policy decision with a real
// trade-off — rebuild aggressively and the vulnerability window (MTTR)
// shrinks while foreground latency suffers, rebuild gently and the
// volume stays exposed longer. The engine asks the configured
// RebuildPolicy for a duty-cycle fraction after every completed chunk
// and derives the idle gap from it, so policies stay pure pacing
// decisions with no event-loop knowledge.
package sim

// RebuildPolicy paces a volume's online rebuild. After each completed
// chunk scan the engine calls Pace with the current foreground pressure
// and idles the rebuilder for chunkTime·(1−pace)/pace before the next
// chunk, so pace is the fraction of the rebuilder's timeline spent
// doing rebuild I/O (1 rebuilds flat out).
//
// Implementations must be deterministic — pace may depend only on the
// arguments and state accumulated from previous Pace calls, never on
// host time or private randomness — or run reproducibility breaks.
// A returned pace outside (0,1] is clamped (non-positive values and
// NaN to MinRebuildPace, values above 1 to 1) rather than trusted.
type RebuildPolicy interface {
	// Reset clears run-scoped state; RunVolume calls it alongside the
	// device and scheduler resets, so one policy value can be reused
	// across sequential runs.
	Reset()
	// Pace returns the duty-cycle fraction in (0,1] for the next
	// inter-chunk gap. queue is the foreground queue depth at chunk
	// completion, summed over every member scheduler (rebuild ops are
	// never queued at that instant, so the sum is pure foreground
	// backlog).
	Pace(queue int) float64
	// Name identifies the policy in artifacts and docs.
	Name() string
}

// MinRebuildPace floors clamped policy paces so a buggy policy slows
// the rebuild at most 100× rather than stalling it forever.
const MinRebuildPace = 0.01

// clampPace enforces the (0,1] contract on a policy's return value.
// The !(p > 0) form also catches NaN. Tiny-but-positive paces pass
// through untouched: they are legal, just slow.
func clampPace(p float64) float64 {
	if !(p > 0) {
		return MinRebuildPace
	}
	if p > 1 {
		return 1
	}
	return p
}

// FixedRebuild is the default policy: a constant duty cycle. After each
// chunk the rebuilder idles so rebuild I/O occupies roughly Frac of its
// timeline; RunVolume rejects a Frac outside (0,1].
type FixedRebuild struct {
	// Frac is the constant duty cycle in (0,1].
	Frac float64
}

// Reset implements RebuildPolicy (no run-scoped state).
func (f FixedRebuild) Reset() {}

// Pace implements RebuildPolicy: the pace never varies.
func (f FixedRebuild) Pace(int) float64 { return f.Frac }

// Name implements RebuildPolicy.
func (f FixedRebuild) Name() string { return "fixed" }

// AdaptiveRebuild paces the rebuild off live foreground pressure: it
// sprints at MaxFrac while the member queues are idle and hyperbolically
// backs off as queue depth grows, flooring at MinFrac. The effect is an
// automatic trade: during foreground bursts the rebuild yields (bounding
// degraded-mode p95), and the moment the queues drain it sprints
// (bounding MTTR) — where any fixed fraction must pick one side and pay
// the other.
type AdaptiveRebuild struct {
	// MaxFrac is the sprint duty cycle applied at empty queues; zero
	// selects 1 (flat out).
	MaxFrac float64
	// MinFrac floors the duty cycle under deep queues; zero selects 0.1.
	MinFrac float64
	// Backoff scales how fast the pace decays per queued foreground
	// request: pace = MaxFrac / (1 + Backoff·queue). Zero selects 1.
	Backoff float64
}

// Reset implements RebuildPolicy (the policy is memoryless; every pace
// is a pure function of the instantaneous queue depth).
func (a AdaptiveRebuild) Reset() {}

// Pace implements RebuildPolicy.
func (a AdaptiveRebuild) Pace(queue int) float64 {
	max, min, back := a.MaxFrac, a.MinFrac, a.Backoff
	if max <= 0 {
		max = 1
	}
	if min <= 0 {
		min = 0.1
	}
	if back <= 0 {
		back = 1
	}
	pace := max / (1 + back*float64(queue))
	if pace < min {
		return min
	}
	return pace
}

// Name implements RebuildPolicy.
func (a AdaptiveRebuild) Name() string { return "adaptive" }
