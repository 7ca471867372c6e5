// Package sched implements the four request-scheduling algorithms the
// paper compares (§4.1): First-Come-First-Served, Shortest-Seek-Time-First
// approximated by LBN distance (SSTF_LBN), Cyclical LOOK (C-LOOK), and
// Shortest-Positioning-Time-First (SPTF).
//
// All schedulers implement core.Scheduler over one queue core (queue,
// and lastLBN for the position-tracking policies); each keeps its own
// selection scan in Next. SSTF_LBN and C-LOOK use only
// logical block numbers, treating LBN distance as a proxy for positioning
// time — the information a host OS actually has (§4.1, Worthington et
// al.). SPTF asks the device model for an exact positioning estimate,
// which for disks captures rotational latency and for MEMS-based storage
// captures the overlapped X/Y seeks and settling time (§4.2).
package sched

import (
	"fmt"
	"math"
	"sort"

	"memsim/internal/core"
)

// New constructs a scheduler by algorithm name: one of the paper's four
// ("FCFS", "SSTF_LBN", "C-LOOK", "SPTF"), a cost-model extension
// ("SettleAware", "Priority"), or an indexed large-queue variant
// ("SPTF_IDX", "SettleAware_IDX"). It returns an error for unknown
// names.
func New(name string) (core.Scheduler, error) {
	switch name {
	case "FCFS":
		return NewFCFS(), nil
	case "SSTF_LBN", "SSTF":
		return NewSSTF(), nil
	case "C-LOOK", "CLOOK":
		return NewCLOOK(), nil
	case "SPTF":
		return NewSPTF(), nil
	case "SettleAware":
		return NewSettleAware(), nil
	case "Priority":
		return NewPriority(), nil
	case "SPTF_IDX":
		return NewIndexedSPTF(), nil
	case "SettleAware_IDX":
		return NewIndexedSettleAware(), nil
	default:
		return nil, fmt.Errorf("sched: unknown algorithm %q", name)
	}
}

// Names lists the paper's four algorithms in its presentation order.
// Artifact sweeps iterate this list, so it deliberately excludes the
// extensions; see AllNames.
func Names() []string { return []string{"FCFS", "SSTF_LBN", "C-LOOK", "SPTF"} }

// AllNames lists every name New accepts: the paper's four, the
// cost-model extensions, and the indexed large-queue variants.
func AllNames() []string {
	return append(Names(), "SettleAware", "Priority", "SPTF_IDX", "SettleAware_IDX")
}

// queue is the pending-request store every scheduler embeds. Add
// appends in arrival order; take swap-removes, so a position-aware
// scan sees arrival order permuted by earlier dispatches.
type queue struct {
	q []*core.Request
}

// Add implements core.Scheduler.
func (s *queue) Add(r *core.Request) { s.q = append(s.q, r) }

// Len implements core.Scheduler.
func (s *queue) Len() int { return len(s.q) }

// Reset implements core.Scheduler. The backing array is kept (elements
// cleared so serviced requests are not pinned) so a reused scheduler
// does not regrow its queue from scratch every run.
func (s *queue) Reset() {
	clear(s.q)
	s.q = s.q[:0]
}

// take removes and returns q[i], moving the tail into its place.
func (s *queue) take(i int) *core.Request {
	n := len(s.q) - 1
	r := s.q[i]
	s.q[i] = s.q[n]
	s.q[n] = nil
	s.q = s.q[:n]
	return r
}

// remove removes and returns q[i], keeping the rest in order. It
// shifts rather than re-slices so the backing array does not pin
// serviced requests.
func (s *queue) remove(i int) *core.Request {
	n := len(s.q) - 1
	r := s.q[i]
	copy(s.q[i:], s.q[i+1:])
	s.q[n] = nil
	s.q = s.q[:n]
	return r
}

// lastLBN is a queue that also tracks the block following the most
// recently dispatched request, the reference point for LBN-distance
// algorithms. Reset returns it to LBN 0, as for a fresh scheduler.
type lastLBN struct {
	queue
	pos int64
}

// Reset implements core.Scheduler.
func (l *lastLBN) Reset() {
	l.queue.Reset()
	l.pos = 0
}

// take is queue.take that records the dispatch.
func (l *lastLBN) take(i int) *core.Request { return l.dispatched(l.queue.take(i)) }

// dispatched moves the head past r and returns r.
func (l *lastLBN) dispatched(r *core.Request) *core.Request {
	l.pos = r.LBN + int64(r.Blocks)
	return r
}

// FCFS services requests strictly in arrival order. It is the reference
// point that saturates first in Figs. 5 and 6.
type FCFS struct {
	queue
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements core.Scheduler.
func (f *FCFS) Name() string { return "FCFS" }

// Next implements core.Scheduler.
func (f *FCFS) Next(core.Device, float64) *core.Request {
	if len(f.q) == 0 {
		return nil
	}
	return f.remove(0)
}

// Requeue implements core.Requeuer: a request retried after a failed
// service visit goes back to the head of the queue, ahead of fresh
// arrivals — it already waited its turn once. The position-aware
// schedulers (SSTF_LBN, C-LOOK, SPTF) need no such method: they rescan
// the whole queue at every dispatch, so a retried request competes on
// position like any other and plain Add suffices.
func (f *FCFS) Requeue(r *core.Request) {
	f.q = append(f.q, nil)
	copy(f.q[1:], f.q)
	f.q[0] = r
}

// SSTF schedules the pending request whose starting LBN is closest to the
// last accessed LBN ("SSTF_LBN" in the paper): a greedy policy with good
// average performance but poor starvation resistance.
type SSTF struct {
	lastLBN
}

// NewSSTF returns an empty SSTF_LBN queue.
func NewSSTF() *SSTF { return &SSTF{} }

// Name implements core.Scheduler.
func (s *SSTF) Name() string { return "SSTF_LBN" }

// Next implements core.Scheduler.
func (s *SSTF) Next(core.Device, float64) *core.Request {
	if len(s.q) == 0 {
		return nil
	}
	best, bestDist := 0, int64(-1)
	for i, r := range s.q {
		d := r.LBN - s.pos
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return s.take(best)
}

// CLOOK services requests in ascending LBN order, starting over with the
// lowest pending LBN once no request lies ahead of the most recent one
// (Seaman et al., 1966). It trades a little average performance for the
// best starvation resistance of the four policies.
type CLOOK struct {
	lastLBN
}

// NewCLOOK returns an empty C-LOOK queue.
func NewCLOOK() *CLOOK { return &CLOOK{} }

// Name implements core.Scheduler.
func (c *CLOOK) Name() string { return "C-LOOK" }

// Next implements core.Scheduler.
func (c *CLOOK) Next(core.Device, float64) *core.Request {
	if len(c.q) == 0 {
		return nil
	}
	// The request with the smallest LBN ≥ pos; if none, wrap to the
	// smallest LBN overall.
	ahead, lowest := -1, 0
	for i, r := range c.q {
		if r.LBN < c.q[lowest].LBN {
			lowest = i
		}
		if r.LBN >= c.pos && (ahead < 0 || r.LBN < c.q[ahead].LBN) {
			ahead = i
		}
	}
	if ahead < 0 {
		return c.take(lowest)
	}
	return c.take(ahead)
}

// SPTF services the pending request with the smallest predicted cost
// under an injectable core.CostModel. The default model is the device's
// own service-time estimate from its current mechanical state — classic
// shortest-positioning-time-first (Seltzer et al.; Jacobson & Wilkes):
// for disks this accounts for rotational position; for MEMS-based
// storage it accounts for the parallel X/Y seeks, spring forces, and
// settling time. Variants plug in a different scoring function rather
// than a new queue type (see NewSettleAware and NewASPTF).
//
// Ties break on queue position: among equal-cost candidates the
// earliest-scanned wins (strict-less comparison), and the internal scan
// order is arrival order permuted by swap-removal. Determinism tests
// pin this.
type SPTF struct {
	queue
	cost core.CostModel
	name string
}

// NewSPTF returns an empty SPTF queue scoring by full estimated service
// time (core.AccessCost).
func NewSPTF() *SPTF { return &SPTF{cost: core.AccessCost, name: "SPTF"} }

// NewSettleAware returns an SPTF queue scoring by core.SettleAwareCost:
// the estimate minus its settle phase. Settle is the unschedulable
// floor of MEMS positioning — every access pays it wherever the sled
// starts — so discounting it ranks candidates by the seek work the
// scheduler can actually avoid. On devices that cannot estimate a
// breakdown it behaves exactly like SPTF.
func NewSettleAware() *SPTF {
	return &SPTF{cost: core.SettleAwareCost, name: "SettleAware"}
}

// NewASPTF returns aged SPTF (Jacobson & Wilkes): an SPTF queue scoring
// by core.AgedCost(core.AccessCost, weight), so a request's estimate is
// discounted by weight ms per ms it has waited. Pure SPTF's greediness
// starves distant requests — the Fig. 6 reproduction shows its σ²/µ²
// exploding at the saturation knee, where the paper observed SPTF's
// "odd behavior" — and a small weight trades a little mean response for
// bounded tails. Weight 0 is SPTF; large weights approach FCFS. It
// panics unless weight is finite and non-negative: an infinite weight
// makes every zero-wait cost NaN (Inf·0), which no scan can rank.
func NewASPTF(weight float64) *SPTF {
	if !(weight >= 0) || math.IsInf(weight, 1) {
		panic(fmt.Sprintf("sched: ASPTF weight %g is not finite and non-negative", weight))
	}
	return NewCostSPTF(fmt.Sprintf("ASPTF(%g)", weight), core.AgedCost(core.AccessCost, weight))
}

// NewCostSPTF returns an SPTF queue over an arbitrary cost model,
// reported under the given name. It panics on a nil model.
func NewCostSPTF(name string, cost core.CostModel) *SPTF {
	if cost == nil {
		panic("sched: nil cost model")
	}
	return &SPTF{cost: cost, name: name}
}

// Name implements core.Scheduler.
func (s *SPTF) Name() string { return s.name }

// Next implements core.Scheduler.
func (s *SPTF) Next(d core.Device, now float64) *core.Request {
	if len(s.q) == 0 {
		return nil
	}
	best, bestT := 0, 0.0
	for i, r := range s.q {
		t := s.cost(d, r, now)
		if i == 0 || t < bestT {
			best, bestT = i, t
		}
	}
	return s.take(best)
}

// Drain removes and returns all pending requests in dispatch order —
// the order the scheduler would actually service them, which is what
// determinism tests need to observe. Callers that only care about
// queue contents regardless of policy should use DrainSorted.
func Drain(s core.Scheduler, d core.Device, now float64) []*core.Request {
	var out []*core.Request
	for s.Len() > 0 {
		out = append(out, s.Next(d, now))
	}
	return out
}

// DrainSorted removes all pending requests and returns them in
// ascending LBN order, independent of scheduling policy; tests use it
// to inspect queue contents.
func DrainSorted(s core.Scheduler, d core.Device, now float64) []*core.Request {
	out := Drain(s, d, now)
	sort.Slice(out, func(i, j int) bool { return out[i].LBN < out[j].LBN })
	return out
}
