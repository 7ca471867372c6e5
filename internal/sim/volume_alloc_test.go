package sim

import (
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// recycled is a workload source that hands out copies of pre-generated
// requests and takes completed ones back (Options.OnComplete), so a
// run's allocations are the simulator's own.
type recycled struct {
	reqs []core.Request
	i    int
	free []*core.Request
}

func (s *recycled) Next() *core.Request {
	if s.i == len(s.reqs) {
		return nil
	}
	var r *core.Request
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else {
		r = new(core.Request)
	}
	*r = s.reqs[s.i]
	s.i++
	return r
}

func (s *recycled) release(r *core.Request) { s.free = append(s.free, r) }

// volumeRun builds a 4+1 MEMS parity volume under Priority member
// queues that loses member 0 a quarter of the way through n requests
// and rebuilds it online — the benchmark's volume workload, scaled
// down — and returns a func making one run. Devices, schedulers,
// volume, injector and collector are built once and reset by each run.
func volumeRun(tb testing.TB, n int) func() Result {
	tb.Helper()
	cfg := array.VolumeConfig{Level: array.VolParity, Members: 4, Spares: 1, StripeUnit: 2700, PerMember: 54000}
	v, err := array.NewVolume(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	devs := make([]core.Device, cfg.Devices())
	scheds := make([]core.Scheduler, cfg.Devices())
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		if scheds[i], err = sched.New("Priority"); err != nil {
			tb.Fatal(err)
		}
	}
	gen := workload.NewRandom(workload.RandomConfig{
		Rate: 1000, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 32 * 1024,
		SectorSize: 512, Capacity: cfg.Capacity(), Count: n, Seed: 1,
	})
	src := &recycled{}
	for r := gen.Next(); r != nil; r = gen.Next() {
		src.reqs = append(src.reqs, *r)
	}
	icfg := fault.DefaultInjectorConfig()
	icfg.Seed = 7
	icfg.DeviceEvents = []fault.DeviceEvent{{AtMs: src.reqs[n/4].Arrival, Dev: 0}}
	inj, err := fault.NewInjector(icfg)
	if err != nil {
		tb.Fatal(err)
	}
	spec := VolumeSpec{Volume: v, Devices: devs, Scheds: scheds, RebuildChunk: 2700, RebuildPolicy: AdaptiveRebuild{}}
	opts := Options{Probe: NewPhaseCollector(), Sketch: true, Injector: inj, OnComplete: src.release}
	return func() Result {
		src.i = 0
		res, err := RunVolume(nil, spec, src, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
}

// TestRunVolumeAllocationFree checks that the volume path allocates
// nothing per request: once a run has grown its pools, a run of 2N
// requests with a failure and a full rebuild allocates no more than a
// run of N, within 0.01·N.
func TestRunVolumeAllocationFree(t *testing.T) {
	const n = 4000
	allocs := func(n int) float64 {
		run := volumeRun(t, n)
		if res := run(); res.Volume.RebuildsDone != 1 {
			t.Fatalf("n=%d: rebuild did not finish: %+v", n, *res.Volume)
		}
		return testing.AllocsPerRun(1, func() { run() })
	}
	a1, a2 := allocs(n), allocs(2*n)
	if a2-a1 > 0.01*n {
		t.Errorf("a run allocates %g objects at %d requests and %g at %d: %.4f per extra request",
			a1, n, a2, 2*n, (a2-a1)/n)
	}
}

// BenchmarkRunVolume times one scaled-down rebuild run of the
// benchmark's volume workload per iteration; allocs/op counts what a
// run allocates once its pools have grown.
func BenchmarkRunVolume(b *testing.B) {
	run := volumeRun(b, 20000)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
