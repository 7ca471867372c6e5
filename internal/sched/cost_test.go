package sched

import (
	"math"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
)

// flatDev estimates every access at the same cost, so every candidate
// ties and dispatch order is purely the scheduler's tie-breaking rule.
type flatDev struct{}

func (flatDev) Name() string                                  { return "flat" }
func (flatDev) Capacity() int64                               { return 1 << 30 }
func (flatDev) SectorSize() int                               { return 512 }
func (flatDev) Access(*core.Request, float64) float64         { return 1 }
func (flatDev) EstimateAccess(*core.Request, float64) float64 { return 1 }
func (flatDev) Reset()                                        {}

func classReq(lbn int64, arrival float64, c core.Class) *core.Request {
	return &core.Request{Arrival: arrival, Op: core.Read, LBN: lbn, Blocks: 8, Class: c}
}

// ─── Tie-breaking determinism (satellite) ───────────────────────────────
//
// Swap-removal permutes the internal queue, so "first added wins" only
// holds until the first dispatch. These tests pin the exact dispatch
// sequences under equal-cost candidates so the cost-model rebase (and
// any future refactor) cannot silently change them.

func TestSPTFTieBreakDeterminism(t *testing.T) {
	// All costs equal on flatDev: Next picks internal index 0, and
	// swap-remove moves the tail into the hole. Adding A,B,C,D and
	// draining must yield A, D, C, B — the pinned swap-remove order.
	s := NewSPTF()
	for _, lbn := range []int64{1, 2, 3, 4} { // A=1 B=2 C=3 D=4
		s.Add(req(lbn))
	}
	got := lbns(Drain(s, flatDev{}, 0))
	want := []int64{1, 4, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SPTF equal-cost dispatch = %v, want %v", got, want)
		}
	}
}

func TestSPTFTieBreakAfterInterleavedAdds(t *testing.T) {
	// Interleaving a dispatch between adds exercises the permuted state:
	// after A,B,C → Next (A out, queue [C,B]), adding D gives [C,B,D].
	s := NewSPTF()
	for _, lbn := range []int64{1, 2, 3} {
		s.Add(req(lbn))
	}
	if r := s.Next(flatDev{}, 0); r.LBN != 1 {
		t.Fatalf("first dispatch = %d, want 1", r.LBN)
	}
	s.Add(req(4))
	got := lbns(Drain(s, flatDev{}, 0))
	want := []int64{3, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SPTF interleaved equal-cost dispatch = %v, want %v", got, want)
		}
	}
}

func TestSSTFTieBreakDeterminism(t *testing.T) {
	// Position is 108 after dispatching LBN 100 (8 blocks). 118 and 98
	// are both distance 10; the strict-less comparison keeps the earlier
	// internal index, so insertion order decides.
	s := NewSSTF()
	s.Add(req(100))
	s.Next(nil, 0)
	s.Add(req(118))
	s.Add(req(98))
	if r := s.Next(nil, 0); r.LBN != 118 {
		t.Fatalf("SSTF equidistant pick = %d, want first-added 118", r.LBN)
	}
	// Same distances added in the opposite order flip the winner.
	s.Reset()
	s.Add(req(100))
	s.Next(nil, 0)
	s.Add(req(98))
	s.Add(req(118))
	if r := s.Next(nil, 0); r.LBN != 98 {
		t.Fatalf("SSTF equidistant pick = %d, want first-added 98", r.LBN)
	}
}

func TestCLOOKTieBreakDeterminism(t *testing.T) {
	// Duplicate LBNs: the strict-less scan keeps the earliest internal
	// index for both the "ahead" and the wrap candidate.
	a, b := req(60), req(60)
	s := NewCLOOK()
	s.Add(a)
	s.Add(b)
	s.Add(req(70))
	if r := s.Next(nil, 0); r != a {
		t.Fatal("C-LOOK duplicate-LBN ahead pick is not the first added")
	}
	// After dispatching a (ends at 68), 70 is ahead; b waits for the wrap.
	got := lbns(Drain(s, nil, 0))
	want := []int64{70, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C-LOOK dispatch after duplicate = %v, want %v", got, want)
		}
	}
}

// ─── SettleAware ────────────────────────────────────────────────────────

func TestSettleAwarePicksMinDiscountedCost(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	g := d.Geometry()
	s := NewSettleAware()
	candidates := []*core.Request{
		req(g.LBN(0, 0, 0, 0)),
		req(g.LBN(g.Cylinders/2, 0, 0, 0)),
		req(g.LBN(g.Cylinders-1, 0, 0, 0)),
	}
	best, bestT := -1, 0.0
	for i, r := range candidates {
		s.Add(r)
		if t := core.SettleAwareCost(d, r, 0); best < 0 || t < bestT {
			best, bestT = i, t
		}
	}
	if r := s.Next(d, 0); r != candidates[best] {
		t.Errorf("SettleAware picked LBN %d, want argmin of discounted cost LBN %d",
			r.LBN, candidates[best].LBN)
	}
}

func TestSettleAwareMatchesSPTFOnOpaqueDevice(t *testing.T) {
	// Without a breakdown estimator the discount degrades to AccessCost,
	// so the dispatch sequence must equal SPTF's exactly.
	run := func(s core.Scheduler) []int64 {
		for _, lbn := range []int64{7, 3, 9, 1, 5} {
			s.Add(req(lbn))
		}
		return lbns(Drain(s, flatDev{}, 0))
	}
	a, b := run(NewSPTF()), run(NewSettleAware())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SettleAware %v diverged from SPTF %v on an opaque device", b, a)
		}
	}
}

// ─── Priority ───────────────────────────────────────────────────────────

func TestPriorityStrictBands(t *testing.T) {
	p := NewPriority()
	p.Add(classReq(10, 0, core.ClassRebuild))
	p.Add(classReq(20, 0, core.ClassForeground))
	p.Add(classReq(30, 0, core.ClassDegradedRead))
	p.Add(classReq(40, 0, core.ClassForeground))
	var got []core.Class
	for p.Len() > 0 {
		got = append(got, p.Next(flatDev{}, 0).Class)
	}
	want := []core.Class{core.ClassDegradedRead, core.ClassForeground, core.ClassForeground, core.ClassRebuild}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("band order = %v, want %v", got, want)
		}
	}
}

func TestPriorityCostOrdersWithinBand(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	g := d.Geometry()
	near := g.LBN(g.Cylinders/2, 0, 0, 0)
	far := g.LBN(0, 0, 0, 0)
	p := NewPriority()
	p.Add(classReq(far, 0, core.ClassForeground))
	p.Add(classReq(near, 0, core.ClassForeground))
	if r := p.Next(d, 0); r.LBN != near {
		t.Errorf("within-band pick = LBN %d, want the cheaper %d", r.LBN, near)
	}
}

func TestPriorityAgePromotionBoundsStarvation(t *testing.T) {
	p := NewPriorityWith(core.AccessCost, 50)
	old := classReq(10, 0, core.ClassRebuild)
	p.Add(old)
	fresh := classReq(20, 100, core.ClassDegradedRead)
	p.Add(fresh)
	// At t=100 the rebuild chunk has waited 100 ms ≥ 50: promoted into
	// band 0, it competes on cost with the degraded read and, costs
	// being flat, wins on scan order.
	if r := p.Next(flatDev{}, 100); r != old {
		t.Error("aged rebuild chunk was not promoted past a fresh degraded read")
	}
}

func TestPriorityPromotionDisabled(t *testing.T) {
	p := NewPriorityWith(core.AccessCost, 0)
	old := classReq(10, 0, core.ClassRebuild)
	p.Add(old)
	fresh := classReq(20, 1e6, core.ClassForeground)
	p.Add(fresh)
	if r := p.Next(flatDev{}, 1e6); r != fresh {
		t.Error("promoteMs=0 must keep strict bands (foreground before rebuild)")
	}
}

func TestPriorityTieBreakDeterminism(t *testing.T) {
	// Same band, flat costs: pinned swap-remove order, exactly like SPTF.
	p := NewPriority()
	for _, lbn := range []int64{1, 2, 3, 4} {
		p.Add(classReq(lbn, 0, core.ClassForeground))
	}
	got := lbns(Drain(p, flatDev{}, 0))
	want := []int64{1, 4, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Priority equal-cost dispatch = %v, want %v", got, want)
		}
	}
}

func TestNewPriorityWithPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nil cost":      func() { NewPriorityWith(nil, DefaultPromoteMs) },
		"NaN promotion": func() { NewPriorityWith(core.AccessCost, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewCostSPTFPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCostSPTF(nil) did not panic")
		}
	}()
	NewCostSPTF("bad", nil)
}
