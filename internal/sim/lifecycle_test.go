package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

func TestRunPreCancelledContext(t *testing.T) {
	// A context cancelled before the run starts (an expired deadline, a
	// batch-wide interrupt) must stop the engine before it dispatches a
	// single event.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &fixedDevice{svc: 2}
	src := workload.NewFromSlice(mkReqs([]float64{0, 1, 2}))
	res := Run(&Context{Ctx: cctx}, d, sched.NewFCFS(), src, Options{})
	if !res.Cancelled {
		t.Fatal("pre-cancelled run not marked Cancelled")
	}
	if res.Requests != 0 || res.FailedRequests != 0 {
		t.Errorf("pre-cancelled run completed %d/%d requests, want 0",
			res.Requests, res.FailedRequests)
	}
	if res.Elapsed != 0 {
		t.Errorf("pre-cancelled run advanced the clock to %g", res.Elapsed)
	}
}

func TestRunClosedPreCancelledContext(t *testing.T) {
	// The closed-loop issue chain honours the same pre-dispatch check.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs(make([]float64, 10)))
	res := RunClosed(&Context{Ctx: cctx}, d, src, Options{})
	if !res.Cancelled || res.Requests != 0 {
		t.Fatalf("closed pre-cancelled: Cancelled=%v requests=%d", res.Cancelled, res.Requests)
	}
}

func TestRunCancelMidRun(t *testing.T) {
	// Cancelling from a probe mid-run (the tightest possible poll
	// interval) yields a well-formed partial result: some but not all
	// requests measured, the clock where it stopped, Cancelled set.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d := &fixedDevice{svc: 1}
	const total = 100
	completes := 0
	probe := probeFunc(func(ev ProbeEvent) {
		if ev.Kind == EventComplete {
			if completes++; completes == 5 {
				cancel()
			}
		}
	})
	src := workload.NewFromSlice(mkReqs(make([]float64, total)))
	res := Run(&Context{Ctx: cctx, CancelEvery: 1}, d, sched.NewFCFS(), src,
		Options{Probe: probe})
	if !res.Cancelled {
		t.Fatal("cancelled run not marked Cancelled")
	}
	if res.Requests < 5 || res.Requests >= total {
		t.Errorf("partial result measured %d requests, want in [5,%d)", res.Requests, total)
	}
	if res.Elapsed <= 0 {
		t.Errorf("partial result elapsed = %g", res.Elapsed)
	}
	if res.Response.N() != int64(res.Requests) {
		t.Errorf("response samples %d != requests %d", res.Response.N(), res.Requests)
	}
}

func TestRunBackgroundContextByteIdentical(t *testing.T) {
	// context.Background has a nil Done channel, so the cancellation
	// fast path must leave the event loop untouched: results are
	// identical to a nil-Context run, poll counters and all.
	mk := func(ctx *Context) Result {
		d := &fixedDevice{svc: 2}
		src := workload.NewFromSlice(mkReqs([]float64{0, 0.5, 1, 7, 9}))
		return Run(ctx, d, sched.NewFCFS(), src, Options{Warmup: 1})
	}
	plain := mk(nil)
	bg := mk(&Context{Ctx: context.Background()})
	if !reflect.DeepEqual(plain, bg) {
		t.Errorf("background-context run diverged:\nnil ctx: %+v\nbackground: %+v", plain, bg)
	}
	if bg.Cancelled {
		t.Error("background-context run marked Cancelled")
	}
}

func TestCheckedRunMatchesUnchecked(t *testing.T) {
	// Options.Check must be observation-only: a checked run's Result is
	// identical to the unchecked run's, failed requests included.
	mk := func(check bool) Result {
		devs, scheds := multiFixtures(2, 1)
		src := workload.NewFromSlice(mkReqs([]float64{0, 1, 2, 3, 4, 5}))
		return mustStripe(t, nil, devs, scheds, 1<<29, 1<<29, src,
			Options{Injector: alwaysFail(t), Check: check})
	}
	plain := mk(false)
	checked := mk(true)
	if !reflect.DeepEqual(plain, checked) {
		t.Errorf("checked run diverged:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
}

// badBreakdownDevice reports a service breakdown whose phases do not
// sum to the service time — the accounting leak the invariant probe
// exists to catch.
type badBreakdownDevice struct {
	fixedDevice
}

func (b *badBreakdownDevice) LastBreakdown() (core.Breakdown, bool) {
	return core.Breakdown{Seek: 5, ServiceMs: b.svc}, true
}

func TestCheckPanicsOnBreakdownLeak(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("checked run over a non-reconciling device did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invariant violated") {
			t.Fatalf("panic = %v, want an invariant-violation message", r)
		}
	}()
	d := &badBreakdownDevice{fixedDevice{svc: 2}}
	src := workload.NewFromSlice(mkReqs([]float64{0, 10}))
	Run(nil, d, sched.NewFCFS(), src, Options{Check: true})
}

func TestCheckCleanOverRealRegimes(t *testing.T) {
	// A checked run over each healthy regime (single device, striped
	// multi-device with transient faults, volume with failover and
	// rebuild) must finish without a panic: the shipped simulator
	// satisfies its own invariants.
	t.Run("single", func(t *testing.T) {
		d := &fixedDevice{svc: 1}
		src := workload.NewFromSlice(mkReqs(make([]float64, 50)))
		res := Run(nil, d, sched.NewFCFS(), src, Options{Check: true, Warmup: 5})
		if res.Requests != 45 {
			t.Errorf("requests = %d, want 45", res.Requests)
		}
	})
	t.Run("multi-faults", func(t *testing.T) {
		devs, scheds := multiFixtures(2, 1)
		cfg := fault.InjectorConfig{TransientRate: 0.3, MaxRetries: 2, MaxRequeues: 1, Seed: 7}
		src := workload.NewFromSlice(mkReqs(make([]float64, 40)))
		mustStripe(t, nil, devs, scheds, 8, 8, src,
			Options{Check: true, Injector: mustInjector(t, cfg)})
	})
	t.Run("volume-rebuild", func(t *testing.T) {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		spec.RebuildChunk = 16
		arr := make([]float64, 60)
		lbns := make([]int64, 60)
		for i := range arr {
			arr[i] = float64(i)
			lbns[i] = int64(i) % 64
		}
		src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
		res, err := RunVolume(nil, spec, src, Options{
			Check:    true,
			Injector: devEvents(t, fault.DeviceEvent{AtMs: 10, Dev: 0}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Volume.RebuildsDone != 1 {
			t.Errorf("rebuilds done = %d, want 1", res.Volume.RebuildsDone)
		}
	})
}

func TestRunVolumeCancelMidRebuild(t *testing.T) {
	// Cancelling a volume run while the rebuild is in flight must return
	// a well-formed partial Result: no hung dead-queue drain, the
	// rebuild left incomplete rather than phantom-finished, and every
	// statistic non-negative.
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := volFixtures(t, mirrorVolCfg(), 1)
	spec.RebuildChunk = 16
	probe := probeFunc(func(ev ProbeEvent) {
		if ev.Kind == EventRebuildStart {
			cancel()
		}
	})
	arr := make([]float64, 60)
	lbns := make([]int64, 60)
	for i := range arr {
		arr[i] = float64(i)
		lbns[i] = int64(i) % 64
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(&Context{Ctx: cctx, CancelEvery: 1}, spec, src,
		Options{Probe: probe, Injector: devEvents(t, fault.DeviceEvent{AtMs: 10, Dev: 0})})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("mid-rebuild cancellation not marked Cancelled")
	}
	vs := res.Volume
	if vs == nil {
		t.Fatal("cancelled volume run lost its VolumeStats")
	}
	if vs.DeviceFailures != 1 || vs.RebuildsStarted != 1 {
		t.Errorf("failover counters: failures=%d started=%d, want 1/1",
			vs.DeviceFailures, vs.RebuildsStarted)
	}
	if vs.RebuildsDone != 0 {
		t.Errorf("cancelled rebuild reported done (%d)", vs.RebuildsDone)
	}
	if res.Requests+res.FailedRequests >= 60 {
		t.Errorf("cancelled run completed all %d arrivals", res.Requests+res.FailedRequests)
	}
	for name, v := range map[string]float64{
		"Elapsed":     res.Elapsed,
		"RebuildMs":   vs.RebuildMs,
		"DegradedMs":  vs.DegradedMs,
		"RebuildBusy": vs.RebuildBusy,
	} {
		if v < 0 {
			t.Errorf("%s = %g, negative after cancellation", name, v)
		}
	}
	if res.Elapsed < 10 {
		t.Errorf("elapsed %g ms precedes the 10 ms failure that triggered the rebuild", res.Elapsed)
	}
}

func TestRunVolumeDeadlineExpiry(t *testing.T) {
	// An already-expired deadline behaves exactly like a cancelled
	// context at the volume entry point: immediate well-formed stop.
	cctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-cctx.Done() // the zero timeout has fired
	spec := volFixtures(t, parityVolCfg(), 1)
	arr := []float64{0, 1, 2, 3}
	src := workload.NewFromSlice(volReqs(arr, core.Read, []int64{0, 8, 16, 24}))
	res, err := RunVolume(&Context{Ctx: cctx}, spec, src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Requests != 0 {
		t.Errorf("expired deadline: Cancelled=%v requests=%d", res.Cancelled, res.Requests)
	}
}
