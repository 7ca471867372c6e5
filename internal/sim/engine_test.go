package sim

import (
	"math"
	"reflect"
	"testing"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// alwaysFail returns an injector with no retry or requeue budget and a
// transient rate so close to one that (with this seed) every request in
// these tests completes in error on its first visit.
func alwaysFail(t *testing.T) *fault.Injector {
	t.Helper()
	return mustInjector(t, fault.InjectorConfig{TransientRate: 0.999999, Seed: 5})
}

// TestRunMultiExcludesFailedRequests: a multi-device run whose requests
// all fail must leave them out of Result.Requests/Response and probe
// them with Measured=false, exactly as Run does.
func TestRunMultiExcludesFailedRequests(t *testing.T) {
	devs, scheds := multiFixtures(2, 1)
	reqs := mkReqs([]float64{0, 1, 2, 3, 4, 5})
	var probed []ProbeEvent
	res := mustStripe(t, nil, devs, scheds, 1<<29, 1<<29,
		workload.NewFromSlice(reqs),
		Options{Injector: alwaysFail(t), Probe: probeFunc(func(ev ProbeEvent) {
			if ev.Kind == EventComplete {
				probed = append(probed, ev)
			}
		})})
	if res.FailedRequests != len(reqs) {
		t.Fatalf("failed = %d, want %d", res.FailedRequests, len(reqs))
	}
	if res.Requests != 0 {
		t.Errorf("measured requests = %d, want 0 (failed requests must be excluded)", res.Requests)
	}
	if n := res.Response.N(); n != 0 {
		t.Errorf("response samples = %d, want 0", n)
	}
	if len(probed) != len(reqs) {
		t.Fatalf("complete events = %d, want %d", len(probed), len(reqs))
	}
	for _, ev := range probed {
		if ev.Measured {
			t.Errorf("complete at %g: Measured=true for a failed request", ev.Time)
		}
		if !ev.Req.Failed {
			t.Errorf("complete at %g: request not marked failed", ev.Time)
		}
	}
}

// TestRunMultiInjectorRetriesAndRequeues exercises the injector's full
// retry → requeue → fail ladder on a striped multi-device volume.
func TestRunMultiInjectorRetriesAndRequeues(t *testing.T) {
	devs, scheds := multiFixtures(2, 1)
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.35
	cfg.Seed = 17
	reqs := mkReqs(make([]float64, 400))
	for i := range reqs {
		reqs[i].Arrival = float64(i)
	}
	res := mustStripe(t, nil, devs, scheds, 1024, 1024,
		workload.NewFromSlice(reqs), Options{Injector: mustInjector(t, cfg)})
	if res.Retries == 0 {
		t.Error("no retries charged at a 35% transient rate")
	}
	if res.Recovered == 0 {
		t.Error("no requests recovered")
	}
	if res.Requeues == 0 {
		t.Error("no requeues at a 35% transient rate (retry budget should overflow)")
	}
	if res.RecoveryMs <= 0 {
		t.Error("no recovery time accumulated")
	}
	if got := res.Requests + res.FailedRequests; got != len(reqs) {
		t.Errorf("measured %d + failed %d != total %d", res.Requests, res.FailedRequests, len(reqs))
	}
	// Per-member attribution covers every service visit: one per
	// request plus one per requeue.
	if got := res.Members[0].Requests + res.Members[1].Requests; got != len(reqs)+res.Requeues {
		t.Errorf("member requests sum = %d, want %d", got, len(reqs)+res.Requeues)
	}
}

// TestRunMultiDeterministicUnderInjector: two identical injected multi
// runs must agree exactly — the engine's determinism contract.
func TestRunMultiDeterministicUnderInjector(t *testing.T) {
	run := func() Result {
		devs, scheds := multiFixtures(3, 2)
		cfg := fault.DefaultInjectorConfig()
		cfg.TransientRate = 0.2
		cfg.Seed = 71
		reqs := mkReqs(make([]float64, 200))
		for i := range reqs {
			reqs[i].Arrival = float64(i) / 2
			reqs[i].LBN = int64(i%3) * 100
		}
		return mustStripe(t, nil, devs, scheds, 100, 100,
			workload.NewFromSlice(reqs), Options{Injector: mustInjector(t, cfg)})
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("injected multi runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunVolumeInjectorRetries: the injector's transient class now
// applies to volume member visits (historically only its device-event
// schedule was consumed).
func TestRunVolumeInjectorRetries(t *testing.T) {
	run := func() Result {
		spec := volFixtures(t, mirrorVolCfg(), 1)
		cfg := fault.DefaultInjectorConfig()
		cfg.TransientRate = 0.3
		cfg.Seed = 23
		src := workload.NewFromSlice(volReqs([]float64{0, 2, 4, 6, 8, 10, 12, 14}, core.Read, []int64{0, 9, 17, 33}))
		res, err := RunVolume(nil, spec, src, Options{Injector: mustInjector(t, cfg)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Retries == 0 {
		t.Error("no retries charged on volume member visits at a 30% transient rate")
	}
	if res.Recovered == 0 {
		t.Error("no volume requests recovered after member retries")
	}
	if res.RecoveryMs <= 0 {
		t.Error("no recovery time accumulated")
	}
	if got := res.Requests + res.FailedRequests; got != 8 {
		t.Errorf("measured %d + failed %d != 8", res.Requests, res.FailedRequests)
	}
	if !reflect.DeepEqual(res, run()) {
		t.Error("injected volume runs diverged")
	}
}

// TestRunVolumeInjectorFailsParent: a member op that exhausts every
// budget fails its parent volume request, which is excluded from the
// measured statistics and tallied as lost at volume scope.
func TestRunVolumeInjectorFailsParent(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	src := workload.NewFromSlice(volReqs([]float64{0, 2, 4, 6}, core.Read, []int64{0, 9}))
	res, err := RunVolume(nil, spec, src, Options{Injector: alwaysFail(t)})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRequests != 4 {
		t.Errorf("failed = %d, want 4", res.FailedRequests)
	}
	if res.Requests != 0 {
		t.Errorf("measured requests = %d, want 0", res.Requests)
	}
	if res.Volume.LostRequests != 4 {
		t.Errorf("volume lost = %d, want 4", res.Volume.LostRequests)
	}
}

// TestRunVolumeInjectorRequeueRecovers: with requeue budget, a member
// op whose visit fails returns to its member queue and the parent
// request still completes successfully.
func TestRunVolumeInjectorRequeueRecovers(t *testing.T) {
	spec := volFixtures(t, mirrorVolCfg(), 1)
	// Fail the first visit's retries deterministically, then recover:
	// rate 0.6 with a requeue budget leaves most requests completing.
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.45
	cfg.MaxRequeues = 3
	cfg.Seed = 31
	src := workload.NewFromSlice(volReqs([]float64{0, 3, 6, 9, 12, 15}, core.Write, []int64{0, 9, 17}))
	res, err := RunVolume(nil, spec, src, Options{Injector: mustInjector(t, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Error("no retries charged")
	}
	if res.Requests == 0 {
		t.Error("every request failed; expected requeue recovery")
	}
	if got := res.Requests + res.FailedRequests; got != 6 {
		t.Errorf("measured %d + failed %d != 6", res.Requests, res.FailedRequests)
	}
}

// TestRunClosedThinkTime: a Thinker source delays each issue by its
// think draw; a zero-think wrapper reproduces the bare run exactly.
func TestRunClosedThinkTime(t *testing.T) {
	mkSrc := func() workload.Source { return workload.NewFromSlice(mkReqs(make([]float64, 20))) }

	bare := RunClosed(nil, &fixedDevice{svc: 2}, mkSrc(), Options{})
	zero := RunClosed(nil, &fixedDevice{svc: 2},
		workload.ThinkTime(mkSrc(), nil, 1), Options{})
	if !reflect.DeepEqual(bare, zero) {
		t.Errorf("zero-think wrapper diverged from bare closed run:\n%+v\nvs\n%+v", bare, zero)
	}
	if bare.Elapsed != 40 {
		t.Errorf("bare elapsed = %g, want 40", bare.Elapsed)
	}

	think := RunClosed(nil, &fixedDevice{svc: 2},
		workload.ThinkTime(mkSrc(), workload.ExpThink(5), 1), Options{})
	if think.Elapsed <= bare.Elapsed {
		t.Errorf("think elapsed = %g, want > %g (think gaps stretch the run)", think.Elapsed, bare.Elapsed)
	}
	// Think time is idle time, not service: per-request response stays
	// the pure service time and utilization drops below 1.
	if think.Response.Mean() != 2 {
		t.Errorf("think response mean = %g, want 2", think.Response.Mean())
	}
	if u := think.Utilization(); u >= 1 {
		t.Errorf("utilization = %g, want < 1 under think time", u)
	}
	// Same seed, same draws: think runs are deterministic.
	again := RunClosed(nil, &fixedDevice{svc: 2},
		workload.ThinkTime(mkSrc(), workload.ExpThink(5), 1), Options{})
	if !reflect.DeepEqual(think, again) {
		t.Error("think-time runs diverged")
	}
}

// TestRunOpenAdapterEdgeCases: the event-driven open regime handles the
// empty source and MaxRequests stop exactly like the historical loop.
func TestRunOpenAdapterEdgeCases(t *testing.T) {
	empty := Run(nil, &fixedDevice{svc: 1}, sched.NewFCFS(),
		workload.NewFromSlice(nil), Options{})
	if empty.Requests != 0 || empty.Elapsed != 0 {
		t.Errorf("empty source: requests=%d elapsed=%g, want 0/0", empty.Requests, empty.Elapsed)
	}

	capped := Run(nil, &fixedDevice{svc: 1}, sched.NewFCFS(),
		workload.NewFromSlice(mkReqs(make([]float64, 50))), Options{MaxRequests: 7})
	if capped.Requests != 7 {
		t.Errorf("capped requests = %d, want 7", capped.Requests)
	}
	if capped.Elapsed != 7 {
		t.Errorf("capped elapsed = %g, want 7", capped.Elapsed)
	}
	if math.Abs(capped.Utilization()-1) > 1e-12 {
		t.Errorf("capped utilization = %g, want 1", capped.Utilization())
	}
}

// probeFunc adapts a function to the Probe interface.
type probeFunc func(ProbeEvent)

func (f probeFunc) Observe(ev ProbeEvent) { f(ev) }
