package sim

import (
	"reflect"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// volFixtures builds a volume over fixed-service devices with FCFS
// queues (constant svc isolates the failover logic from mechanics).
func volFixtures(t *testing.T, cfg array.VolumeConfig, svc float64) VolumeSpec {
	t.Helper()
	v, err := array.NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Devices()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = &fixedDevice{svc: svc}
		scheds[i] = sched.NewFCFS()
	}
	return VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}
}

func mirrorVolCfg() array.VolumeConfig {
	return array.VolumeConfig{Level: array.VolMirror, Members: 2, Spares: 1, StripeUnit: 8, PerMember: 64}
}

func parityVolCfg() array.VolumeConfig {
	return array.VolumeConfig{Level: array.VolParity, Members: 3, Spares: 1, StripeUnit: 8, PerMember: 64}
}

// volReqs builds Blocks=1 requests with the given arrivals, ops and
// volume LBNs.
func volReqs(arrivals []float64, op core.Op, lbns []int64) []*core.Request {
	out := make([]*core.Request, len(arrivals))
	for i, a := range arrivals {
		out[i] = &core.Request{Arrival: a, Op: op, LBN: lbns[i%len(lbns)], Blocks: 1}
	}
	return out
}

func devEvents(t *testing.T, evs ...fault.DeviceEvent) *fault.Injector {
	t.Helper()
	inj, err := fault.NewInjector(fault.InjectorConfig{DeviceEvents: evs})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func TestRunVolumeErrors(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	src := func() workload.Source { return workload.NewFromSlice(volReqs([]float64{0}, core.Read, []int64{0})) }
	cases := []struct {
		name string
		run  func() (Result, error)
	}{
		{"nil volume", func() (Result, error) {
			return RunVolume(nil, VolumeSpec{}, src(), Options{})
		}},
		{"device count", func() (Result, error) {
			s := spec
			s.Devices = s.Devices[:1]
			return RunVolume(nil, s, src(), Options{})
		}},
		{"nil source", func() (Result, error) {
			return RunVolume(nil, spec, nil, Options{})
		}},
		{"bad fraction", func() (Result, error) {
			s := spec
			s.RebuildPolicy = FixedRebuild{Frac: 1.5}
			return RunVolume(nil, s, src(), Options{})
		}},
		{"zero fraction", func() (Result, error) {
			s := spec
			s.RebuildPolicy = FixedRebuild{}
			return RunVolume(nil, s, src(), Options{})
		}},
		{"negative chunk", func() (Result, error) {
			s := spec
			s.RebuildChunk = -1
			return RunVolume(nil, s, src(), Options{})
		}},
		{"member too small", func() (Result, error) {
			cfg := mirrorVolCfg()
			cfg.PerMember = 1 << 40
			cfg.StripeUnit = 1 << 40
			v, err := array.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := spec
			s.Volume = v
			return RunVolume(nil, s, src(), Options{})
		}},
		{"failure slot out of range", func() (Result, error) {
			return RunVolume(nil, spec, src(),
				Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 1, Dev: 7})})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

func TestRunVolumeHealthyShapes(t *testing.T) {
	// No contention, fixed 1 ms service: plan shapes are readable
	// directly in the response times.
	cases := []struct {
		name string
		cfg  array.VolumeConfig
		op   core.Op
		want float64
	}{
		// Mirror read: one replica visit.
		{"mirror read", mirrorVolCfg(), core.Read, 1},
		// Mirror write: both replicas in parallel.
		{"mirror write", mirrorVolCfg(), core.Write, 1},
		// Parity read: one data visit.
		{"parity read", parityVolCfg(), core.Read, 1},
		// Parity small write: 2-phase RMW (read data+parity, then write).
		{"parity write", parityVolCfg(), core.Write, 2},
	}
	for _, tc := range cases {
		spec := volFixtures(t, tc.cfg, 1)
		src := workload.NewFromSlice(volReqs([]float64{0, 10, 20}, tc.op, []int64{0, 16, 32}))
		res, err := RunVolume(nil, spec, src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Requests != 3 {
			t.Fatalf("%s: requests = %d", tc.name, res.Requests)
		}
		if res.Response.Mean() != tc.want {
			t.Errorf("%s: response = %g ms, want %g", tc.name, res.Response.Mean(), tc.want)
		}
		if res.Volume == nil || res.Volume.DeviceFailures != 0 || res.Volume.DegradedMs != 0 {
			t.Errorf("%s: unexpected failover activity: %+v", tc.name, res.Volume)
		}
		if res.Volume.Healthy.N() != 3 || res.Volume.Degraded.N() != 0 {
			t.Errorf("%s: healthy/degraded split = %d/%d", tc.name,
				res.Volume.Healthy.N(), res.Volume.Degraded.N())
		}
	}
}

func TestRunVolumeDeterministic(t *testing.T) {
	// Identical inputs — including a mid-run failure and rebuild — give
	// identical results at full float precision.
	run := func() Result {
		cfg := parityVolCfg()
		cfg.PerMember = 6750000 / 100
		cfg.StripeUnit = 2700
		v, err := array.NewVolume(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := cfg.Devices()
		devs := make([]core.Device, n)
		scheds := make([]core.Scheduler, n)
		for i := range devs {
			devs[i] = mems.MustDevice(mems.DefaultConfig())
			scheds[i] = sched.NewSPTF()
		}
		src := workload.NewRandom(workload.RandomConfig{
			Rate: 500, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 4096,
			SectorSize: devs[0].SectorSize(), Capacity: cfg.Capacity(), Count: 400, Seed: 7,
		})
		res, err := RunVolume(nil,
			VolumeSpec{Volume: v, Devices: devs, Scheds: scheds, RebuildChunk: 2700, RebuildPolicy: FixedRebuild{Frac: 0.5}},
			src, Options{Warmup: 50, Injector: devEvents(t, fault.DeviceEvent{AtMs: 200, Dev: 1})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("volume runs diverged:\n  %+v\n  %+v", a, b)
	}
	if a.Volume.RebuildsDone != 1 {
		t.Fatalf("rebuild did not complete: %+v", a.Volume)
	}
}

func TestRunVolumeStripeSplitsStraddlingRequest(t *testing.T) {
	// A request that crosses a strip (or member) boundary is split into
	// member operations and served in full: the ops' blocks sum to the
	// request's, and each lands on the member that holds its part.
	type piece struct {
		dev    int
		lbn    int64
		blocks int
	}
	cases := []struct {
		name      string
		unit, per int64
		lbn       int64
		want      []piece
	}{
		{"strip", 8, 64, 6, []piece{{0, 6, 2}, {1, 0, 6}}},
		{"concat", 100, 100, 98, []piece{{0, 98, 2}, {1, 0, 6}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			devs, scheds := multiFixtures(2, 1)
			var got []piece
			probe := probeFunc(func(ev ProbeEvent) {
				if ev.Kind == EventService {
					got = append(got, piece{ev.Dev, ev.Req.LBN, ev.Req.Blocks})
				}
			})
			src := workload.NewFromSlice([]*core.Request{{Op: core.Read, LBN: tc.lbn, Blocks: 8}})
			res := mustStripe(t, nil, devs, scheds, tc.unit, tc.per, src, Options{Probe: probe})
			if res.Requests != 1 || res.Response.Mean() != 1 {
				t.Errorf("requests = %d, response = %g; want 1 served in parallel in 1 ms",
					res.Requests, res.Response.Mean())
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("member ops = %+v, want %+v", got, tc.want)
			}
			blocks := 0
			for _, p := range got {
				blocks += p.blocks
			}
			if blocks != 8 {
				t.Errorf("member ops cover %d blocks, want 8", blocks)
			}
		})
	}
}

func TestRunVolumeMirrorFailover(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	spec.RebuildChunk = 16
	rp := &recordingProbe{}
	arr := make([]float64, 60)
	lbns := make([]int64, 60)
	for i := range arr {
		arr[i] = float64(i)
		lbns[i] = int64(i) % 64
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src,
		Options{Probe: rp, Injector: devEvents(t, fault.DeviceEvent{AtMs: 10, Dev: 0})})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if vs.DeviceFailures != 1 || vs.RebuildsStarted != 1 || vs.RebuildsDone != 1 {
		t.Fatalf("failover counters: %+v", vs)
	}
	if vs.RebuildChunks != 4 { // 64 sectors / 16-sector chunks
		t.Errorf("rebuild chunks = %d, want 4", vs.RebuildChunks)
	}
	if res.Requests != 60 || res.FailedRequests != 0 {
		t.Errorf("requests = %d, failed = %d; a mirror failover must lose nothing",
			res.Requests, res.FailedRequests)
	}
	if res.DataLoss {
		t.Error("single mirror failure reported data loss")
	}
	if vs.RebuildMs <= 0 || vs.DegradedMs < vs.RebuildMs {
		t.Errorf("MTTR %.3f ms, degraded window %.3f ms", vs.RebuildMs, vs.DegradedMs)
	}
	if vs.Degraded.N() == 0 || vs.Healthy.N() == 0 {
		t.Errorf("healthy/degraded split = %d/%d", vs.Healthy.N(), vs.Degraded.N())
	}
	if vs.RebuildBusy <= 0 {
		t.Error("rebuild consumed no device time")
	}
	// Mirror survivor reads are full-speed, not reconstruction.
	if vs.DegradedReads != 0 {
		t.Errorf("mirror degraded reads = %d, want 0", vs.DegradedReads)
	}
	// Spare (device 2) did rebuild writes.
	if res.Members[2].Requests == 0 {
		t.Error("spare device served no rebuild traffic")
	}

	// Probe lifecycle: fail → rebuild-start → rebuild-done, in order.
	if rp.count(EventDeviceFail) != 1 || rp.count(EventRebuildStart) != 1 || rp.count(EventRebuildDone) != 1 {
		t.Fatalf("lifecycle events: fail=%d start=%d done=%d",
			rp.count(EventDeviceFail), rp.count(EventRebuildStart), rp.count(EventRebuildDone))
	}
	order := []EventKind{}
	for _, ev := range rp.events {
		switch ev.Kind {
		case EventDeviceFail, EventRebuildStart, EventRebuildDone:
			order = append(order, ev.Kind)
			if ev.Req != nil {
				t.Errorf("%v event carries a request", ev.Kind)
			}
			if ev.Dev != 0 {
				t.Errorf("%v event on slot %d, want 0", ev.Kind, ev.Dev)
			}
		}
	}
	want := []EventKind{EventDeviceFail, EventRebuildStart, EventRebuildDone}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("lifecycle order = %v, want %v", order, want)
	}
}

func TestRunVolumeParityDegradedService(t *testing.T) {
	spec := volFixtures(t, parityVolCfg(), 1)
	spec.RebuildChunk = 8
	arr := make([]float64, 80)
	lbns := make([]int64, 80)
	for i := range arr {
		arr[i] = float64(i) * 2
		lbns[i] = int64(i*7) % 128
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src,
		Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 20, Dev: 1})})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if vs.RebuildsDone != 1 || res.FailedRequests != 0 {
		t.Fatalf("parity failover: %+v failed=%d", vs, res.FailedRequests)
	}
	if vs.DegradedReads == 0 {
		t.Error("no reads paid peer reconstruction while degraded")
	}
	if res.DegradedReads != vs.DegradedReads {
		t.Errorf("Result.DegradedReads %d != Volume.DegradedReads %d",
			res.DegradedReads, vs.DegradedReads)
	}
}

func TestRunVolumeDoubleFailureSurfacesLoss(t *testing.T) {
	cfg := parityVolCfg()
	cfg.Spares = 0 // no cover: the second failure is fatal
	spec := volFixtures(t, cfg, 1)
	arr := make([]float64, 40)
	lbns := make([]int64, 40)
	for i := range arr {
		arr[i] = float64(i)
		lbns[i] = int64(i*5) % 128
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src, Options{Injector: devEvents(t,
		fault.DeviceEvent{AtMs: 5, Dev: 0}, fault.DeviceEvent{AtMs: 12, Dev: 2})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DataLoss {
		t.Fatal("double failure did not surface DataLoss")
	}
	if res.FailedRequests == 0 || res.Volume.LostRequests == 0 || res.LostReads == 0 {
		t.Errorf("lost service not reported: failed=%d lost=%d lostReads=%d",
			res.FailedRequests, res.Volume.LostRequests, res.LostReads)
	}
	// Every arrival completed one way or the other — no silent drops.
	if got := res.Requests + res.FailedRequests; got != 40 {
		t.Errorf("completions+failures = %d, want 40", got)
	}
	if res.Volume.RebuildsDone != 0 {
		t.Error("rebuild reported complete on a lost volume")
	}
	if res.Volume.DegradedMs <= 0 {
		t.Error("no degraded window recorded")
	}
}

func TestRunVolumeSecondFailureMidRebuild(t *testing.T) {
	// A second member failure while the rebuild is still in flight — the
	// vulnerability-window loss of the MTTDL model — must surface as
	// DataLoss with failed reads of the lost sectors and sane MTTR and
	// degraded accounting, never a panic or a phantom completed rebuild.
	cases := []struct {
		name      string
		cfg       array.VolumeConfig
		secondDev int
	}{
		{"mirror", mirrorVolCfg(), 1},
		{"parity", parityVolCfg(), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := volFixtures(t, tc.cfg, 1)
			spec.RebuildChunk = 8
			rp := &recordingProbe{}
			arr := make([]float64, 40)
			lbns := make([]int64, 40)
			for i := range arr {
				arr[i] = float64(i)
				lbns[i] = int64(i*5) % tc.cfg.Capacity()
			}
			src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
			// First failure at 5 ms starts the rebuild (8 chunks × ≥2 ms);
			// the second at 12 ms lands well inside it.
			res, err := RunVolume(nil, spec, src, Options{Probe: rp, Injector: devEvents(t,
				fault.DeviceEvent{AtMs: 5, Dev: 0},
				fault.DeviceEvent{AtMs: 12, Dev: tc.secondDev})})
			if err != nil {
				t.Fatal(err)
			}
			vs := res.Volume
			if !res.DataLoss {
				t.Fatal("second failure mid-rebuild did not surface DataLoss")
			}
			if vs.DeviceFailures != 2 {
				t.Errorf("device failures = %d, want 2", vs.DeviceFailures)
			}
			if vs.RebuildsStarted != 1 || vs.RebuildsDone != 0 {
				t.Errorf("rebuild started/done = %d/%d, want 1/0 (killed mid-flight)",
					vs.RebuildsStarted, vs.RebuildsDone)
			}
			if vs.RebuildMs != 0 {
				t.Errorf("MTTR %.3f ms credited for a rebuild that never finished", vs.RebuildMs)
			}
			if res.FailedRequests == 0 || vs.LostRequests == 0 || res.LostReads == 0 {
				t.Errorf("lost service not reported: failed=%d lost=%d lostReads=%d",
					res.FailedRequests, vs.LostRequests, res.LostReads)
			}
			// Every arrival completed one way or the other — graceful
			// refusal, no silent drops.
			if got := res.Requests + res.FailedRequests; got != 40 {
				t.Errorf("completions+failures = %d, want 40", got)
			}
			// The degraded window opens at the first failure and stays open
			// to the end of the run on a lost volume.
			if vs.DegradedMs <= 0 || vs.DegradedMs > res.Elapsed {
				t.Errorf("degraded window %.3f ms outside (0, %.3f]", vs.DegradedMs, res.Elapsed)
			}
			if rp.count(EventRebuildStart) != 1 || rp.count(EventRebuildDone) != 0 {
				t.Errorf("lifecycle events: start=%d done=%d, want 1/0",
					rp.count(EventRebuildStart), rp.count(EventRebuildDone))
			}
		})
	}
}

func TestRunVolumeLifetimeDrawnFailures(t *testing.T) {
	// Failures drawn from the exponential lifetime model — including
	// repeated deaths after spares are spent — must be deterministic and
	// degrade gracefully, never panic.
	run := func() Result {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 8
		inj, err := fault.NewInjector(fault.InjectorConfig{
			Lifetime: &fault.LifetimeModel{MTTFMs: 15, Slots: 2, HorizonMs: 60, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		arr := make([]float64, 60)
		lbns := make([]int64, 60)
		for i := range arr {
			arr[i] = float64(i)
			lbns[i] = int64(i*3) % 64
		}
		src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
		res, err := RunVolume(nil, spec, src, Options{Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("lifetime-drawn runs diverged")
	}
	// MTTF 15 ms over a 60 ms horizon draws ~4 failures per member slot:
	// both members die long before any rebuild covers.
	if a.Volume.DeviceFailures < 2 {
		t.Fatalf("drew %d device failures, want ≥2", a.Volume.DeviceFailures)
	}
	if !a.DataLoss {
		t.Error("both mirror members failed but no DataLoss")
	}
	if got := a.Requests + a.FailedRequests; got != 60 {
		t.Errorf("completions+failures = %d, want 60", got)
	}
	if a.Volume.DegradedMs <= 0 || a.Volume.DegradedMs > a.Elapsed {
		t.Errorf("degraded window %.3f ms outside (0, %.3f]", a.Volume.DegradedMs, a.Elapsed)
	}
}

func TestRunVolumeAdaptivePaceChanges(t *testing.T) {
	// Under a foreground burst the adaptive policy must actually change
	// pace (backing off as the survivor queue grows, sprinting as it
	// drains), emitting one EventRebuildPace per change; the default
	// fixed policy must emit none.
	run := func(policy RebuildPolicy) (Result, *recordingProbe) {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 8
		spec.RebuildPolicy = policy
		rp := &recordingProbe{}
		// 80 reads at 4/ms against a 1 ms/req survivor: the queue grows
		// through the burst and drains after it ends at 20 ms.
		arr := make([]float64, 80)
		lbns := make([]int64, 80)
		for i := range arr {
			arr[i] = float64(i) * 0.25
			lbns[i] = int64(i*5) % 64
		}
		src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
		res, err := RunVolume(nil, spec, src,
			Options{Probe: rp, Injector: devEvents(t, fault.DeviceEvent{AtMs: 4, Dev: 0})})
		if err != nil {
			t.Fatal(err)
		}
		return res, rp
	}

	adaptive, arp := run(AdaptiveRebuild{})
	if adaptive.Volume.RebuildsDone != 1 {
		t.Fatalf("adaptive rebuild incomplete: %+v", adaptive.Volume)
	}
	if adaptive.Volume.PaceChanges == 0 {
		t.Error("adaptive policy never changed pace under a varying queue")
	}
	if got := arp.count(EventRebuildPace); got != adaptive.Volume.PaceChanges {
		t.Errorf("pace events = %d, PaceChanges = %d", got, adaptive.Volume.PaceChanges)
	}
	for _, ev := range arp.events {
		if ev.Kind != EventRebuildPace {
			continue
		}
		if ev.Req != nil {
			t.Error("pace event carries a request")
		}
		if ev.Dev != 0 {
			t.Errorf("pace event on slot %d, want failed slot 0", ev.Dev)
		}
		if !(ev.Pace > 0 && ev.Pace <= 1) {
			t.Errorf("pace event outside (0,1]: %g", ev.Pace)
		}
		if ev.Queue < 0 {
			t.Errorf("pace event queue = %d", ev.Queue)
		}
	}

	fixed, frp := run(nil) // default FixedRebuild flat-out
	if fixed.Volume.RebuildsDone != 1 {
		t.Fatalf("fixed rebuild incomplete: %+v", fixed.Volume)
	}
	if fixed.Volume.PaceChanges != 0 || frp.count(EventRebuildPace) != 0 {
		t.Errorf("fixed policy changed pace: changes=%d events=%d",
			fixed.Volume.PaceChanges, frp.count(EventRebuildPace))
	}
}

func TestRunVolumeAdaptiveSprintsWhenIdle(t *testing.T) {
	// With no foreground pressure during the rebuild the adaptive policy
	// holds pace 1 throughout: MTTR matches the flat-out fixed rebuild
	// (16 ms, see TestRunVolumeThrottleStretchesRebuild) and no pace
	// change fires.
	spec := volFixtures(t, mirrorVolCfg(), 1)
	spec.RebuildChunk = 8
	spec.RebuildPolicy = AdaptiveRebuild{}
	src := workload.NewFromSlice(volReqs([]float64{0, 1, 2}, core.Read, []int64{0, 8, 16}))
	res, err := RunVolume(nil, spec, src,
		Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 4, Dev: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if res.Volume.RebuildsDone != 1 {
		t.Fatalf("rebuild incomplete: %+v", res.Volume)
	}
	if res.Volume.RebuildMs != 16 {
		t.Errorf("idle adaptive MTTR = %g ms, want flat-out 16", res.Volume.RebuildMs)
	}
	if res.Volume.PaceChanges != 0 {
		t.Errorf("pace changed %d times with empty queues", res.Volume.PaceChanges)
	}
}

func TestRunVolumeThrottleStretchesRebuild(t *testing.T) {
	// The same failure rebuilt at 25% throttle must take longer than
	// flat-out, and the rebuild tail must run past source exhaustion.
	run := func(frac float64) Result {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 8
		spec.RebuildPolicy = FixedRebuild{Frac: frac}
		src := workload.NewFromSlice(volReqs([]float64{0, 1, 2}, core.Read, []int64{0, 8, 16}))
		res, err := RunVolume(nil, spec, src,
			Options{Injector: devEvents(t, fault.DeviceEvent{AtMs: 4, Dev: 1})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat, throttled := run(1), run(0.25)
	if flat.Volume.RebuildsDone != 1 || throttled.Volume.RebuildsDone != 1 {
		t.Fatalf("rebuilds incomplete: flat=%+v throttled=%+v", flat.Volume, throttled.Volume)
	}
	if throttled.Volume.RebuildMs <= flat.Volume.RebuildMs {
		t.Errorf("throttled MTTR %.3f ms not above flat-out %.3f ms",
			throttled.Volume.RebuildMs, flat.Volume.RebuildMs)
	}
	// 8 chunks × 2 ms each: flat-out MTTR ≈ 16 ms; 25% throttle idles
	// 3× the chunk time after each chunk ≈ 58 ms.
	if flat.Volume.RebuildMs != 16 {
		t.Errorf("flat MTTR = %g ms, want 16", flat.Volume.RebuildMs)
	}
	if throttled.Volume.RebuildMs != 58 {
		t.Errorf("throttled MTTR = %g ms, want 58", throttled.Volume.RebuildMs)
	}
}

func TestRunVolumeMemberPhases(t *testing.T) {
	// With a PhaseCollector the run reports volume-level phases per
	// measured request and per-member phases per service visit.
	cfg := parityVolCfg()
	cfg.PerMember = 2700 * 4
	cfg.StripeUnit = 2700
	v, err := array.NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Devices()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		scheds[i] = sched.NewFCFS()
	}
	pc := NewPhaseCollector()
	src := workload.NewRandom(workload.RandomConfig{
		Rate: 300, ReadFraction: 0.5, MeanBytes: 2048, MaxBytes: 4096,
		SectorSize: devs[0].SectorSize(), Capacity: cfg.Capacity(), Count: 120, Seed: 3,
	})
	res, err := RunVolume(nil, VolumeSpec{Volume: v, Devices: devs, Scheds: scheds}, src,
		Options{Warmup: 10, Probe: pc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == nil || res.Phases.Requests != res.Requests {
		t.Fatalf("volume phases = %+v for %d requests", res.Phases, res.Requests)
	}
	visits := 0
	for i, m := range res.Members {
		if m.Phases == nil {
			t.Fatalf("member %d missing phases", i)
		}
		if m.Phases.Requests != m.Requests {
			t.Errorf("member %d phase visits %d != requests %d", i, m.Phases.Requests, m.Requests)
		}
		visits += m.Phases.Requests
	}
	// Member phases are per visit and cover warmup: at least one visit
	// per completed request, spares idle on a healthy run.
	if visits < res.Requests {
		t.Errorf("member visits %d below measured requests %d", visits, res.Requests)
	}
	if res.Members[n-1].Requests != 0 {
		t.Error("spare device served traffic on a healthy run")
	}
}

func TestRunVolumeMaxRequests(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	arr := make([]float64, 30)
	lbns := make([]int64, 30)
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src, Options{MaxRequests: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 7 {
		t.Errorf("requests = %d, want 7", res.Requests)
	}
}
