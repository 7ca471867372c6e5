// indexed.go implements the indexed SPTF variants: cost-model
// scheduling whose per-dispatch work is bounded by a candidate window
// rather than the queue depth.
//
// Classic SPTF evaluates the device's positioning estimate for every
// pending request on every dispatch — O(n) cost-model calls, each a
// full mechanical computation (X/Y seek overlap, spring forces,
// settling). At the deep queues where position-aware scheduling
// matters most (hundreds of requests at saturation, §4.1's Fig. 5
// regime), that estimate scan dominates simulation time. The indexed
// variants keep the queue sorted by LBN and evaluate the cost model
// only on the requests nearest the head position in LBN order — the
// candidates that can plausibly win, since positioning cost grows with
// sled travel distance and LBN distance is the host-visible proxy for
// it (the same proxy SSTF_LBN trusts completely).
//
// The variants are deliberately opt-in ("SPTF_IDX", "SettleAware_IDX")
// rather than a drop-in replacement: with a finite window the pick can
// differ from the full scan's when a far-away request happens to be
// mechanically cheap (e.g. settle-dominated short Y distance at large
// X distance), so the dispatch sequence is not byte-identical to
// SPTF's and the golden equivalence suite keeps pinning the classic
// algorithms.
package sched

import (
	"sort"

	"memsim/internal/core"
)

// DefaultIndexWindow is the candidate window half-width for the
// indexed SPTF variants: the cost model is evaluated for at most this
// many requests on each side of the head position in LBN order.
// 16 per side keeps a dispatch at 32 estimates regardless of queue
// depth while covering every candidate that wins in practice — at
// MEMS geometry the seek component dominates past a few cylinders of
// LBN distance, so the true cost minimum falls inside a much narrower
// LBN neighborhood than this.
const DefaultIndexWindow = 16

// IndexedSPTF is an SPTF-family scheduler over an LBN-sorted queue:
// Add inserts in LBN order (stable for equal LBNs), and Next evaluates
// the cost model only on the window of requests nearest the last
// dispatched position, picking the cheapest with the same strict-less
// tie-break discipline as SPTF (earliest in scan order wins; here scan
// order is ascending LBN). Per-dispatch cost-model work is O(window),
// queue maintenance O(n) pointer moves — a profitable trade because a
// mechanical estimate costs orders of magnitude more than a pointer
// copy.
type IndexedSPTF struct {
	lastLBN // q ascending by LBN; stable among equals
	cost    core.CostModel
	name    string
	window  int
}

var _ core.Scheduler = (*IndexedSPTF)(nil)

// NewIndexedSPTF returns an empty indexed queue scoring by full
// estimated service time (core.AccessCost) with DefaultIndexWindow.
func NewIndexedSPTF() *IndexedSPTF {
	return NewIndexedCost("SPTF_IDX", core.AccessCost, DefaultIndexWindow)
}

// NewIndexedSettleAware returns an empty indexed queue scoring by
// core.SettleAwareCost with DefaultIndexWindow — the indexed
// counterpart of NewSettleAware.
func NewIndexedSettleAware() *IndexedSPTF {
	return NewIndexedCost("SettleAware_IDX", core.SettleAwareCost, DefaultIndexWindow)
}

// NewIndexedCost returns an indexed queue over an arbitrary cost model
// and window half-width, reported under the given name. It panics on a
// nil model or a non-positive window.
func NewIndexedCost(name string, cost core.CostModel, window int) *IndexedSPTF {
	if cost == nil {
		panic("sched: nil cost model")
	}
	if window <= 0 {
		panic("sched: non-positive index window")
	}
	return &IndexedSPTF{cost: cost, name: name, window: window}
}

// Name implements core.Scheduler.
func (s *IndexedSPTF) Name() string { return s.name }

// Add implements core.Scheduler: binary-search insertion keeps the
// queue LBN-sorted, with equal-LBN requests in arrival order.
func (s *IndexedSPTF) Add(r *core.Request) {
	i := sort.Search(len(s.q), func(i int) bool { return s.q[i].LBN > r.LBN })
	s.q = append(s.q, nil)
	copy(s.q[i+1:], s.q[i:])
	s.q[i] = r
}

// Next implements core.Scheduler: the cheapest request among the
// window nearest the head position in LBN order.
func (s *IndexedSPTF) Next(d core.Device, now float64) *core.Request {
	n := len(s.q)
	if n == 0 {
		return nil
	}
	// The window straddles the head position's insertion point.
	c := sort.Search(n, func(i int) bool { return s.q[i].LBN >= s.pos })
	lo, hi := c-s.window, c+s.window
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	best, bestT := -1, 0.0
	for i := lo; i < hi; i++ {
		if t := s.cost(d, s.q[i], now); best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	return s.dispatched(s.remove(best))
}
