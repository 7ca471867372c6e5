package sim

import (
	"testing"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// schedSpy wraps a scheduler and counts Add calls, so tests can tell
// whether the engine returned a failed request via core.Requeuer or the
// Add fallback. It deliberately does NOT implement Requeuer itself.
type schedSpy struct {
	inner    core.Scheduler
	adds     int
	requeues int
}

func (s *schedSpy) Name() string                                  { return s.inner.Name() }
func (s *schedSpy) Add(r *core.Request)                           { s.adds++; s.inner.Add(r) }
func (s *schedSpy) Next(d core.Device, now float64) *core.Request { return s.inner.Next(d, now) }
func (s *schedSpy) Len() int                                      { return s.inner.Len() }
func (s *schedSpy) Reset()                                        { s.inner.Reset() }

// requeuerSpy additionally forwards Requeue, for wrapping schedulers
// that implement core.Requeuer (FCFS).
type requeuerSpy struct {
	*schedSpy
}

func (s *requeuerSpy) Requeue(r *core.Request) {
	s.requeues++
	s.inner.(core.Requeuer).Requeue(r)
}

// spy wraps inner so the wrapper implements core.Requeuer exactly when
// inner does, and returns the shared counters.
func spy(inner core.Scheduler) (core.Scheduler, *schedSpy) {
	sp := &schedSpy{inner: inner}
	if _, ok := inner.(core.Requeuer); ok {
		return &requeuerSpy{sp}, sp
	}
	return sp, sp
}

// TestRequeuerImplementations pins which schedulers implement the
// optional core.Requeuer interface: only FCFS distinguishes retried
// requests from fresh arrivals (it returns them to the queue head); the
// cost-driven policies re-rank retries like any other pending request.
func TestRequeuerImplementations(t *testing.T) {
	for _, name := range sched.AllNames() {
		s, err := sched.New(name)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := s.(core.Requeuer)
		if want := name == "FCFS"; ok != want {
			t.Errorf("%s implements core.Requeuer = %v, want %v", name, ok, want)
		}
	}
}

// transientInjector forces requeues: every retry budget is zero so each
// transient error immediately returns the request to the scheduler.
func transientInjector(t *testing.T) *fault.Injector {
	t.Helper()
	return mustInjector(t, fault.InjectorConfig{TransientRate: 0.6, MaxRequeues: 5, Seed: 11})
}

// TestRequeuePreferenceOpen drives every scheduler through the
// single-device open regime under a transient-error injector and
// asserts which path the engine's requeue helper took: FCFS sees
// Requeue calls and exactly one Add per arrival; all other schedulers
// see the Add fallback, one extra Add per requeue.
func TestRequeuePreferenceOpen(t *testing.T) {
	for _, name := range sched.AllNames() {
		t.Run(name, func(t *testing.T) {
			inner, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, sp := spy(inner)
			arr := make([]float64, 40)
			for i := range arr {
				arr[i] = float64(i)
			}
			reqs := mkReqs(arr)
			res := Run(nil, &fixedDevice{svc: 1}, s, workload.NewFromSlice(reqs),
				Options{Injector: transientInjector(t)})
			if res.Requeues == 0 {
				t.Fatal("injector produced no requeues; test exercises nothing")
			}
			if res.Requests+res.FailedRequests != len(reqs) {
				t.Errorf("conservation: %d measured + %d failed != %d issued",
					res.Requests, res.FailedRequests, len(reqs))
			}
			if _, ok := s.(core.Requeuer); ok {
				if sp.requeues != res.Requeues {
					t.Errorf("Requeue calls = %d, want %d", sp.requeues, res.Requeues)
				}
				if sp.adds != len(reqs) {
					t.Errorf("Add calls = %d, want one per arrival (%d)", sp.adds, len(reqs))
				}
			} else {
				if sp.requeues != 0 {
					t.Errorf("non-Requeuer %s saw %d Requeue calls", name, sp.requeues)
				}
				if want := len(reqs) + res.Requeues; sp.adds != want {
					t.Errorf("Add calls = %d, want arrivals+requeues = %d", sp.adds, want)
				}
			}
		})
	}
}

// TestRequeuePreferenceVolume repeats the preference check in the
// volume regime, where requeues target the failed member's own queue.
func TestRequeuePreferenceVolume(t *testing.T) {
	for _, name := range sched.AllNames() {
		t.Run(name, func(t *testing.T) {
			spec := volFixtures(t, parityVolCfg(), 1)
			spies := make([]*schedSpy, len(spec.Scheds))
			requeuer := false
			for i := range spec.Scheds {
				inner, err := sched.New(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Scheds[i], spies[i] = spy(inner)
				_, requeuer = inner.(core.Requeuer)
			}
			arr := make([]float64, 40)
			lbns := make([]int64, 40)
			for i := range arr {
				arr[i] = float64(i)
				lbns[i] = int64(i) % 128
			}
			src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
			res, err := RunVolume(nil, spec, src, Options{Injector: transientInjector(t)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Requeues == 0 {
				t.Fatal("injector produced no requeues; test exercises nothing")
			}
			adds, requeues := 0, 0
			for _, sp := range spies {
				adds += sp.adds
				requeues += sp.requeues
			}
			if requeuer {
				if requeues != res.Requeues {
					t.Errorf("Requeue calls = %d, want %d", requeues, res.Requeues)
				}
				if adds != len(arr) {
					t.Errorf("Add calls = %d, want one per member op (%d)", adds, len(arr))
				}
			} else {
				if requeues != 0 {
					t.Errorf("non-Requeuer %s saw %d Requeue calls", name, requeues)
				}
				if want := len(arr) + res.Requeues; adds != want {
					t.Errorf("Add calls = %d, want member ops+requeues = %d", adds, want)
				}
			}
		})
	}
}

// TestVolumeClassAccounting exercises the class-tagging path end to
// end: a parity member dies mid-run, so reconstruction reads and
// rebuild chunks flow alongside foreground traffic, and the per-class
// response split plus the dispatch-event class stamps must reconcile
// with the volume's own counters.
func TestVolumeClassAccounting(t *testing.T) {
	spec := volFixtures(t, parityVolCfg(), 1)
	spec.RebuildChunk = 8
	spec.RebuildPolicy = FixedRebuild{Frac: 0.1} // stretch the rebuild so reads hit the degraded window
	var classes [core.NumClasses]int
	probe := probeFunc(func(ev ProbeEvent) {
		if ev.Kind != EventDispatch {
			return
		}
		if int(ev.Class) >= core.NumClasses {
			t.Errorf("dispatch carries out-of-range class %d", ev.Class)
			return
		}
		classes[ev.Class]++
		if ev.Time < 10 && ev.Class != core.ClassForeground {
			t.Errorf("pre-failure dispatch at %.1f ms tagged %v", ev.Time, ev.Class)
		}
	})
	arr := make([]float64, 80)
	lbns := make([]int64, 80)
	for i := range arr {
		arr[i] = float64(i)
		lbns[i] = int64(i) % 128
	}
	src := workload.NewFromSlice(volReqs(arr, core.Read, lbns))
	res, err := RunVolume(nil, spec, src,
		Options{Probe: probe, Injector: devEvents(t, fault.DeviceEvent{AtMs: 10, Dev: 0})})
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Volume
	if vs.DeviceFailures != 1 || vs.RebuildsDone != 1 {
		t.Fatalf("failover counters: %+v", vs)
	}
	if vs.DegradedReads == 0 {
		t.Fatal("no degraded reads; workload never hit the failed member")
	}
	fg := vs.ClassResponse[core.ClassForeground].N()
	dg := vs.ClassResponse[core.ClassDegradedRead].N()
	rb := vs.ClassResponse[core.ClassRebuild].N()
	if dg != int64(vs.DegradedReads) {
		t.Errorf("ClassResponse[degraded-read] N = %d, want DegradedReads = %d", dg, vs.DegradedReads)
	}
	if rb != int64(vs.RebuildChunks) {
		t.Errorf("ClassResponse[rebuild] N = %d, want RebuildChunks = %d", rb, vs.RebuildChunks)
	}
	if split := vs.Healthy.N() + vs.Degraded.N(); fg+dg != split {
		t.Errorf("foreground class split %d+%d != healthy/degraded split %d", fg, dg, split)
	}
	for c, want := range map[core.Class]int64{
		core.ClassForeground:   fg,
		core.ClassDegradedRead: dg,
		core.ClassRebuild:      rb,
	} {
		if want > 0 && classes[c] == 0 {
			t.Errorf("no dispatch events tagged %v despite %d completions", c, want)
		}
	}
	if vs.ClassResponse[core.ClassRebuild].Mean() <= 0 {
		t.Error("rebuild chunk latencies not folded into ClassResponse")
	}
}
