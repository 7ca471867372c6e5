package sched

import (
	"math"
	"testing"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// TestASPTFZeroWeightEqualsSPTF also covers the zero-wait case: at
// t = 0 with every arrival at 0, aging is a no-op for any weight.
func TestASPTFZeroWeightEqualsSPTF(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	g := d.Geometry()
	lbns := []int64{
		g.LBN(0, 0, 0, 0),
		g.LBN(g.Cylinders/2, 1, 3, 0),
		g.LBN(g.Cylinders-1, 4, 20, 0),
	}
	for _, w := range []float64{0, 0.05} {
		a := NewASPTF(w)
		s := NewSPTF()
		for _, lbn := range lbns {
			a.Add(&core.Request{LBN: lbn, Blocks: 8})
			s.Add(&core.Request{LBN: lbn, Blocks: 8})
		}
		for s.Len() > 0 {
			ra := a.Next(d, 0)
			rs := s.Next(d, 0)
			if ra.LBN != rs.LBN {
				t.Fatalf("%s picked %d, SPTF picked %d", a.Name(), ra.LBN, rs.LBN)
			}
		}
	}
}

func TestASPTFLargeWeightApproachesFCFS(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	a := NewASPTF(1e9)
	// The oldest request wins regardless of position.
	far := &core.Request{Arrival: 0, LBN: 0, Blocks: 8}
	near := &core.Request{Arrival: 100, LBN: d.Capacity() / 2, Blocks: 8}
	d.Reset() // sled at center: near is positionally cheaper
	a.Add(near)
	a.Add(far)
	if got := a.Next(d, 200); got != far {
		t.Errorf("heavy aging should dispatch the oldest request")
	}
}

func TestASPTFName(t *testing.T) {
	if NewASPTF(0.05).Name() != "ASPTF(0.05)" {
		t.Errorf("name = %q", NewASPTF(0.05).Name())
	}
}

// TestASPTFNegativeWeightPanics also rejects non-finite weights: NaN,
// or Inf·0 at zero wait, would make every cost NaN.
func TestASPTFNegativeWeightPanics(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewASPTF(%g) did not panic", w)
				}
			}()
			NewASPTF(w)
		}()
	}
}

func TestASPTFResetAndEmpty(t *testing.T) {
	a := NewASPTF(0.1)
	if a.Next(nil, 0) != nil {
		t.Error("empty Next should be nil")
	}
	a.Add(&core.Request{LBN: 1, Blocks: 1})
	a.Reset()
	if a.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestASPTFTamesSPTFTails(t *testing.T) {
	// The extension's purpose: at the saturation knee, a small aging
	// weight must cut SPTF's worst-case response dramatically.
	d := mems.MustDevice(mems.DefaultConfig())
	run := func(s core.Scheduler) (mean, max float64) {
		src := workload.DefaultRandom(1600, d.SectorSize(), d.Capacity(), 4000, 3)
		res := sim.Run(nil, d, s, src, sim.Options{Warmup: 400})
		return res.Response.Mean(), res.Response.Max()
	}
	_, sptfMax := run(NewSPTF())
	agedMean, agedMax := run(NewASPTF(0.01))
	if agedMax*2 > sptfMax {
		t.Errorf("ASPTF max %.1f ms should be far below SPTF max %.1f ms", agedMax, sptfMax)
	}
	if agedMean <= 0 {
		t.Error("mean must be positive")
	}
}
