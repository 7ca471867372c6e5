package core_test

import (
	"math"
	"math/rand"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/power"
)

// shiftLayout offsets every block by a constant, wrapping at capacity in
// extent-sized steps so contiguity is preserved for the extents tested.
type shiftLayout struct{ off, cap int64 }

func (s shiftLayout) Name() string { return "shift" }
func (s shiftLayout) Map(lbn int64) int64 {
	v := lbn + s.off
	if v >= s.cap {
		v -= s.cap
	}
	return v
}

func testDevices(t *testing.T) map[string]core.Device {
	t.Helper()
	md, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dd, err := disk.NewDevice(disk.Atlas10K())
	if err != nil {
		t.Fatal(err)
	}
	md2, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dd2, err := disk.NewDevice(disk.Atlas10K())
	if err != nil {
		t.Fatal(err)
	}
	md3, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]core.Device{
		"mems": md,
		"disk": dd,
		// Layout wrapper: estimation must remap exactly like Access.
		"managed-mems": core.NewManagedDevice(md2, shiftLayout{off: 4096, cap: md2.Capacity()}),
		// Power wrapper with a short timeout so idle gaps trigger the
		// restart-penalty branch of the estimate.
		"power-disk": power.NewManaged(dd2, power.MobileDiskModel(), power.Policy{TimeoutMs: 5}),
		// Both wrappers stacked.
		"power-managed-mems": power.NewManaged(
			core.NewManagedDevice(md3, shiftLayout{off: 512, cap: md3.Capacity()}),
			power.MEMSModel(), power.Immediate()),
	}
}

// TestEstimateBreakdownReconciles is the acceptance property: the
// estimated breakdown's ServiceMs equals EstimateAccess to ≤1e-9 (and
// its phases sum to that total), for raw devices and through the
// managed/power wrappers, across random request streams that advance
// device state between estimates.
func TestEstimateBreakdownReconciles(t *testing.T) {
	for name, d := range testDevices(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			capBlocks := d.Capacity()
			now := 0.0
			for i := 0; i < 500; i++ {
				blocks := 1 + rng.Intn(64)
				req := &core.Request{
					Arrival: now,
					Op:      core.Op(rng.Intn(2)),
					LBN:     rng.Int63n(capBlocks - int64(blocks)),
					Blocks:  blocks,
				}
				est := d.EstimateAccess(req, now)
				bd, ok := core.TryEstimateBreakdown(d, req, now)
				if !ok {
					t.Fatalf("%s does not implement BreakdownEstimator", d.Name())
				}
				if diff := math.Abs(bd.ServiceMs - est); diff > 1e-9 {
					t.Fatalf("req %d: EstimateBreakdown.ServiceMs=%.12g EstimateAccess=%.12g (diff %g)",
						i, bd.ServiceMs, est, diff)
				}
				if diff := math.Abs(bd.Unattributed()); diff > 1e-9 {
					t.Fatalf("req %d: unattributed estimate residue %g", i, diff)
				}
				// The estimate must match the access it predicts...
				svc := d.Access(req, now)
				if diff := math.Abs(svc - est); diff > 1e-9 {
					t.Fatalf("req %d: Access=%.12g but estimate was %.12g", i, svc, est)
				}
				// ...and advance time, sometimes with an idle gap to trip
				// the power wrapper's standby path.
				now += svc
				if rng.Intn(4) == 0 {
					now += 10 * rng.Float64()
				}
			}
		})
	}
}

// TestEstimateBreakdownFallback checks the scalar fallback for devices
// that cannot decompose their estimate.
func TestEstimateBreakdownFallback(t *testing.T) {
	d := opaqueDevice{}
	req := &core.Request{Blocks: 1}
	if _, ok := core.TryEstimateBreakdown(d, req, 0); ok {
		t.Fatal("opaque device unexpectedly decomposes")
	}
	bd := core.EstimateBreakdown(d, req, 0)
	if bd.ServiceMs != 7.5 || bd.PhaseSum() != 0 {
		t.Fatalf("fallback breakdown = %+v, want bare ServiceMs 7.5", bd)
	}
}

// TestSettleAwareCost checks the settle discount against the estimated
// breakdown, and the AccessCost fallback for opaque devices.
func TestSettleAwareCost(t *testing.T) {
	d, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := &core.Request{LBN: d.Capacity() / 3, Blocks: 8}
	bd := core.EstimateBreakdown(d, req, 0)
	if bd.Settle <= 0 {
		t.Fatalf("expected a settle component, got %+v", bd)
	}
	got := core.SettleAwareCost(d, req, 0)
	want := bd.ServiceMs - bd.Settle
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("SettleAwareCost=%g want %g", got, want)
	}
	if full := core.AccessCost(d, req, 0); got >= full {
		t.Fatalf("settle-aware cost %g not below full cost %g", got, full)
	}
	if got := core.SettleAwareCost(opaqueDevice{}, req, 0); got != 7.5 {
		t.Fatalf("opaque fallback = %g, want 7.5", got)
	}
}

func TestAgedCost(t *testing.T) {
	aged := core.AgedCost(core.AccessCost, 0.05)
	req := &core.Request{Arrival: 10, LBN: 1, Blocks: 8}
	// Zero wait: exactly the base cost.
	if got := aged(opaqueDevice{}, req, 10); got != 7.5 {
		t.Fatalf("zero-wait aged cost = %g, want 7.5", got)
	}
	// 100 ms of wait forgives 0.05·100 = 5 ms.
	if got := aged(opaqueDevice{}, req, 110); got != 7.5-0.05*100 {
		t.Fatalf("aged cost after 100 ms = %g, want %g", got, 7.5-0.05*100)
	}
}

func TestClassString(t *testing.T) {
	cases := map[core.Class]string{
		core.ClassForeground:   "foreground",
		core.ClassDegradedRead: "degraded-read",
		core.ClassRebuild:      "rebuild",
		core.Class(9):          "Class(9)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// opaqueDevice implements core.Device without BreakdownEstimator.
type opaqueDevice struct{}

func (opaqueDevice) Name() string                                  { return "opaque" }
func (opaqueDevice) Capacity() int64                               { return 1 << 20 }
func (opaqueDevice) SectorSize() int                               { return 512 }
func (opaqueDevice) Access(*core.Request, float64) float64         { return 7.5 }
func (opaqueDevice) EstimateAccess(*core.Request, float64) float64 { return 7.5 }
func (opaqueDevice) Reset()                                        {}
