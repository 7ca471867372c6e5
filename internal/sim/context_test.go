package sim

import (
	"testing"

	"memsim/internal/core"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

func TestContextProgressNilReceiver(t *testing.T) {
	// The progress hook is documented safe on a nil receiver; every entry
	// point calls it unconditionally.
	var c *Context
	c.progress(1, 0) // must not panic
	c = &Context{}   // nil OnProgress is equally inert
	c.progress(1, 0)
}

func TestContextProgressNegativeInterval(t *testing.T) {
	// Zero or negative ProgressEvery falls back to every 1000 completions.
	d := &fixedDevice{svc: 0.001}
	fired := 0
	ctx := &Context{ProgressEvery: -5, OnProgress: func(int, float64) { fired++ }}
	src := workload.NewFromSlice(mkReqs(make([]float64, 1500)))
	RunClosed(ctx, d, src, Options{})
	if fired != 1 {
		t.Errorf("negative interval fired %d times, want 1 (at 1000)", fired)
	}
}

func TestContextProgressExactBoundary(t *testing.T) {
	// A run whose completion count is an exact multiple of the interval
	// fires on the final completion too.
	d := &fixedDevice{svc: 1}
	var at []int
	ctx := &Context{ProgressEvery: 5, OnProgress: func(n int, _ float64) { at = append(at, n) }}
	src := workload.NewFromSlice(mkReqs(make([]float64, 10)))
	Run(ctx, d, sched.NewFCFS(), src, Options{})
	if len(at) != 2 || at[0] != 5 || at[1] != 10 {
		t.Errorf("progress fired at %v, want [5 10]", at)
	}
}

func TestContextProgressReportsSimTime(t *testing.T) {
	// The second callback argument is simulated time, not wall time.
	d := &fixedDevice{svc: 2}
	var times []float64
	ctx := &Context{ProgressEvery: 1, OnProgress: func(_ int, ms float64) { times = append(times, ms) }}
	src := workload.NewFromSlice(mkReqs([]float64{0, 0, 0}))
	Run(ctx, d, sched.NewFCFS(), src, Options{})
	want := []float64{2, 4, 6}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("progress time %d = %g, want %g", i, times[i], want[i])
		}
	}
}

func TestRunMultiProgress(t *testing.T) {
	// A multi-device volume reports completions through the same hook
	// as the single-device loops.
	devs, scheds := multiFixtures(2, 1)
	var at []int
	ctx := &Context{ProgressEvery: 4, OnProgress: func(n int, _ float64) { at = append(at, n) }}
	src := workload.NewFromSlice(mkReqs(make([]float64, 10)))
	mustStripe(t, ctx, devs, scheds, 1<<29, 1<<29, src, Options{})
	if len(at) != 2 || at[0] != 4 || at[1] != 8 {
		t.Errorf("progress fired at %v, want [4 8]", at)
	}
}

func TestRunMultiIdlePeriods(t *testing.T) {
	// Arrivals separated by idle gaps: the event loop must ride through
	// empty queues, and elapsed time tracks the last completion.
	devs, scheds := multiFixtures(1, 2)
	src := workload.NewFromSlice(mkReqs([]float64{0, 100, 200}))
	res := mustStripe(t, nil, devs, scheds, 1<<29, 1<<29, src, Options{})
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Elapsed != 202 {
		t.Errorf("elapsed = %g, want 202", res.Elapsed)
	}
	if res.Response.Mean() != 2 {
		t.Errorf("response mean = %g, want 2 (no contention)", res.Response.Mean())
	}
}

func TestRunMultiOnComplete(t *testing.T) {
	// The OnComplete observer fires for every completion, warmup included.
	devs, scheds := multiFixtures(2, 1)
	src := workload.NewFromSlice(mkReqs(make([]float64, 12)))
	seen := 0
	mustStripe(t, nil, devs, scheds, 1<<29, 1<<29, src,
		Options{Warmup: 5, OnComplete: func(*core.Request) { seen++ }})
	if seen != 12 {
		t.Errorf("OnComplete fired %d times, want 12", seen)
	}
}
