package sched

import (
	"fmt"
	"math"

	"memsim/internal/core"
)

// DefaultPromoteMs is the default age-promotion threshold for Priority:
// a request of any class that has waited this long is promoted to the
// most urgent band, bounding starvation no matter how busy the higher
// bands are. 50 ms is a handful of saturated-queue service quanta on
// either device model — long enough that rebuild chunks yield under
// load, short enough that they cannot be starved across a whole run.
const DefaultPromoteMs = 50

// Priority services requests in strict class bands — degraded-read,
// then foreground, then rebuild — ordering within a band by a cost
// model (SPTF by default). A degraded-mode read is already paying peer
// reconstruction on a user's critical path, so it preempts everything;
// rebuild chunks are background work whose only deadline is the
// vulnerability window, so they run when nothing else is pending.
//
// An age-based promotion threshold bounds starvation: any request that
// has waited at least promoteMs joins the most urgent band, so the
// worst-case queue delay of a rebuild chunk under sustained foreground
// load is promoteMs plus one band-drain, not unbounded.
//
// Ties (same band, equal cost) break on scan position exactly like
// SPTF: earliest-scanned wins.
type Priority struct {
	queue
	cost      core.CostModel
	promoteMs float64
}

var _ core.Scheduler = (*Priority)(nil)

// NewPriority returns a Priority queue over core.AccessCost with the
// DefaultPromoteMs starvation bound.
func NewPriority() *Priority {
	return NewPriorityWith(core.AccessCost, DefaultPromoteMs)
}

// NewPriorityWith returns a Priority queue over an arbitrary cost model
// and promotion threshold. promoteMs ≤ 0 disables promotion (strict
// bands, unbounded rebuild starvation); it panics on a nil model or a
// NaN threshold.
func NewPriorityWith(cost core.CostModel, promoteMs float64) *Priority {
	if cost == nil {
		panic("sched: nil cost model")
	}
	if math.IsNaN(promoteMs) {
		panic("sched: NaN promotion threshold")
	}
	return &Priority{cost: cost, promoteMs: promoteMs}
}

// Name implements core.Scheduler.
func (p *Priority) Name() string { return "Priority" }

// band maps a request to its service band at time now: 0 degraded-read
// (and anything age-promoted), 1 foreground, 2 rebuild.
func (p *Priority) band(r *core.Request, now float64) int {
	if p.promoteMs > 0 && now-r.Arrival >= p.promoteMs {
		return 0
	}
	switch r.Class {
	case core.ClassDegradedRead:
		return 0
	case core.ClassRebuild:
		return 2
	default:
		return 1
	}
}

// Next implements core.Scheduler: the cheapest candidate in the most
// urgent non-empty band. The cost model is consulted only for requests
// in the winning band, so a deep rebuild backlog adds no estimation
// work while foreground requests are pending.
func (p *Priority) Next(d core.Device, now float64) *core.Request {
	if len(p.q) == 0 {
		return nil
	}
	best, bestBand, bestT := -1, 0, 0.0
	for i, r := range p.q {
		band := p.band(r, now)
		if best >= 0 && band > bestBand {
			continue
		}
		t := p.cost(d, r, now)
		if best < 0 || band < bestBand || t < bestT {
			best, bestBand, bestT = i, band, t
		}
	}
	return p.take(best)
}

// String aids debugging.
func (p *Priority) String() string {
	return fmt.Sprintf("Priority(promote=%gms, len=%d)", p.promoteMs, len(p.q))
}
