package sim

import (
	"math"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// stripeSpec builds a plain stripe volume (no redundancy, no spares)
// over devs: unit-sized strips rotate across the members, and unit ==
// per concatenates them.
func stripeSpec(t testing.TB, devs []core.Device, scheds []core.Scheduler, unit, per int64) VolumeSpec {
	t.Helper()
	v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: len(devs),
		StripeUnit: unit, PerMember: per})
	if err != nil {
		t.Fatal(err)
	}
	return VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}
}

// mustStripe runs src over stripeSpec's volume and fails the test on a
// configuration error.
func mustStripe(t testing.TB, ctx *Context, devs []core.Device, scheds []core.Scheduler,
	unit, per int64, src workload.Source, opts Options) Result {
	t.Helper()
	res, err := RunVolume(ctx, stripeSpec(t, devs, scheds, unit, per), src, opts)
	if err != nil {
		t.Fatalf("RunVolume: %v", err)
	}
	return res
}

func multiFixtures(n int, svc float64) ([]core.Device, []core.Scheduler) {
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = &fixedDevice{svc: svc}
		scheds[i] = sched.NewFCFS()
	}
	return devs, scheds
}

func TestRunMultiParallelism(t *testing.T) {
	// Four simultaneous arrivals onto four members: all finish at svc.
	devs, scheds := multiFixtures(4, 2)
	reqs := mkReqs([]float64{0, 0, 0, 0})
	for i, r := range reqs {
		r.LBN = int64(i) * 100 // one to each member
	}
	res := mustStripe(t, nil, devs, scheds, 100, 100, workload.NewFromSlice(reqs), Options{})
	if res.Requests != 4 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Response.Mean() != 2 || res.Response.Max() != 2 {
		t.Errorf("responses = mean %g max %g, want all 2 (parallel)", res.Response.Mean(), res.Response.Max())
	}
	if res.Elapsed != 2 {
		t.Errorf("elapsed = %g, want 2", res.Elapsed)
	}
}

func TestRunMultiSerializesPerDevice(t *testing.T) {
	// Four simultaneous arrivals onto one member of four: they queue.
	devs, scheds := multiFixtures(4, 2)
	reqs := mkReqs([]float64{0, 0, 0, 0})
	res := mustStripe(t, nil, devs, scheds, 100, 100, workload.NewFromSlice(reqs), Options{})
	if res.Response.Max() != 8 {
		t.Errorf("max response = %g, want 8 (serialized)", res.Response.Max())
	}
}

func TestRunMultiMatchesSingleDeviceRun(t *testing.T) {
	// A one-member volume must agree exactly with Run.
	d1 := mems.MustDevice(mems.DefaultConfig())
	src1 := workload.DefaultRandom(900, 512, d1.Capacity(), 3000, 9)
	single := Run(nil, d1, sched.NewFCFS(), src1, Options{Warmup: 100})

	d2 := mems.MustDevice(mems.DefaultConfig())
	src2 := workload.DefaultRandom(900, 512, d2.Capacity(), 3000, 9)
	vol := mustStripe(t, nil, []core.Device{d2}, []core.Scheduler{sched.NewFCFS()},
		d2.Capacity(), d2.Capacity(), src2, Options{Warmup: 100})

	if math.Abs(single.Response.Mean()-vol.Response.Mean()) > 1e-9 {
		t.Errorf("single %.6f vs volume %.6f", single.Response.Mean(), vol.Response.Mean())
	}
	if single.Requests != vol.Requests {
		t.Errorf("request counts differ: %d vs %d", single.Requests, vol.Requests)
	}
}

func TestRunMultiScalesThroughput(t *testing.T) {
	// A rate that saturates one MEMS device is comfortable for four.
	mk := func(n int) ([]core.Device, []core.Scheduler, int64) {
		devs := make([]core.Device, n)
		scheds := make([]core.Scheduler, n)
		for i := range devs {
			devs[i] = mems.MustDevice(mems.DefaultConfig())
			scheds[i] = sched.NewSPTF()
		}
		return devs, scheds, devs[0].Capacity()
	}
	devs1, scheds1, cap1 := mk(1)
	src := workload.DefaultRandom(2000, 512, cap1, 6000, 4)
	one := mustStripe(t, nil, devs1, scheds1, cap1, cap1, src, Options{Warmup: 500})

	devs4, scheds4, cap4 := mk(4)
	src4 := workload.DefaultRandom(2000, 512, 4*cap4, 6000, 4)
	four := mustStripe(t, nil, devs4, scheds4, cap4, cap4, src4, Options{Warmup: 500})

	if four.Response.Mean()*3 > one.Response.Mean() {
		t.Errorf("4-device volume %.2f ms should be far below saturated single %.2f ms",
			four.Response.Mean(), one.Response.Mean())
	}
}

func TestRunMultiMaxRequests(t *testing.T) {
	devs, scheds := multiFixtures(2, 1)
	src := workload.NewFromSlice(mkReqs(make([]float64, 50)))
	res := mustStripe(t, nil, devs, scheds, 1<<29, 1<<29, src, Options{MaxRequests: 7})
	if res.Requests != 7 {
		t.Errorf("requests = %d, want 7", res.Requests)
	}
}

func TestRunMultiErrors(t *testing.T) {
	// A stripe volume's member translation is checked before the run
	// starts, never mid-run.
	devs, scheds := multiFixtures(2, 1)
	src := func() workload.Source { return workload.NewFromSlice(mkReqs([]float64{0})) }
	spec := stripeSpec(t, devs, scheds, 100, 100)
	cases := []struct {
		name string
		spec VolumeSpec
	}{
		{"scheduler count", VolumeSpec{Volume: spec.Volume, Devices: devs, Scheds: scheds[:1]}},
		{"member larger than its device", stripeSpec(t, devs, scheds, 1<<31, 1<<31)},
	}
	for _, tc := range cases {
		if _, err := RunVolume(nil, tc.spec, src(), Options{}); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestRunMultiMemberAttribution(t *testing.T) {
	// Three requests to member 0, one to member 1: Members must split
	// the per-device shares while the aggregate covers both.
	devs, scheds := multiFixtures(2, 2)
	reqs := mkReqs([]float64{0, 1, 2, 3})
	reqs[3].LBN = 100 // member 1
	res := mustStripe(t, nil, devs, scheds, 100, 100, workload.NewFromSlice(reqs), Options{})
	if len(res.Members) != 2 {
		t.Fatalf("members = %d, want 2", len(res.Members))
	}
	if res.Members[0].Requests != 3 || res.Members[1].Requests != 1 {
		t.Errorf("member requests = %d,%d, want 3,1",
			res.Members[0].Requests, res.Members[1].Requests)
	}
	if res.Members[0].Busy != 6 || res.Members[1].Busy != 2 {
		t.Errorf("member busy = %g,%g, want 6,2", res.Members[0].Busy, res.Members[1].Busy)
	}
	if got := res.Members[0].Busy + res.Members[1].Busy; got != res.Busy {
		t.Errorf("member busy sum %g != total %g", got, res.Busy)
	}
	if res.Members[0].Phases != nil {
		t.Error("member phases present without a PhaseCollector")
	}

	// With a PhaseCollector, per-member phases appear and their request
	// counts match the member split.
	pc := NewPhaseCollector()
	reqs2 := mkReqs([]float64{0, 1, 2, 3})
	reqs2[3].LBN = 100
	res2 := mustStripe(t, nil, devs, scheds, 100, 100, workload.NewFromSlice(reqs2),
		Options{Probe: pc})
	if res2.Members[0].Phases == nil || res2.Members[1].Phases == nil {
		t.Fatal("member phases missing with a PhaseCollector")
	}
	if res2.Members[0].Phases.Requests != 3 || res2.Members[1].Phases.Requests != 1 {
		t.Errorf("member phase requests = %d,%d, want 3,1",
			res2.Members[0].Phases.Requests, res2.Members[1].Phases.Requests)
	}
}
