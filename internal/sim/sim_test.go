package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// fixedDevice services every request in a constant time; it isolates the
// queueing logic from device mechanics.
type fixedDevice struct {
	svc float64
}

func (f *fixedDevice) Name() string                                  { return "fixed" }
func (f *fixedDevice) Capacity() int64                               { return 1 << 30 }
func (f *fixedDevice) SectorSize() int                               { return 512 }
func (f *fixedDevice) Reset()                                        {}
func (f *fixedDevice) Access(*core.Request, float64) float64         { return f.svc }
func (f *fixedDevice) EstimateAccess(*core.Request, float64) float64 { return f.svc }

func mkReqs(arrivals []float64) []*core.Request {
	var out []*core.Request
	for _, a := range arrivals {
		out = append(out, &core.Request{Arrival: a, Op: core.Read, LBN: 0, Blocks: 1})
	}
	return out
}

func TestRunNoContention(t *testing.T) {
	// Arrivals far apart: response time = service time exactly.
	d := &fixedDevice{svc: 2}
	src := workload.NewFromSlice(mkReqs([]float64{0, 100, 200}))
	res := Run(nil, d, sched.NewFCFS(), src, Options{})
	if res.Requests != 3 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.Response.Mean() != 2 || res.Response.Variance() != 0 {
		t.Errorf("response mean=%g var=%g, want 2/0", res.Response.Mean(), res.Response.Variance())
	}
	if res.Elapsed != 202 {
		t.Errorf("elapsed = %g, want 202", res.Elapsed)
	}
	if got := res.Utilization(); math.Abs(got-6.0/202) > 1e-12 {
		t.Errorf("utilization = %g", got)
	}
}

func TestRunQueueing(t *testing.T) {
	// Three simultaneous arrivals, 2 ms service: responses 2, 4, 6.
	d := &fixedDevice{svc: 2}
	src := workload.NewFromSlice(mkReqs([]float64{0, 0, 0}))
	var responses []float64
	res := Run(nil, d, sched.NewFCFS(), src, Options{
		OnComplete: func(r *core.Request) { responses = append(responses, r.ResponseTime()) },
	})
	sort.Float64s(responses)
	want := []float64{2, 4, 6}
	for i := range want {
		if math.Abs(responses[i]-want[i]) > 1e-12 {
			t.Fatalf("responses = %v, want %v", responses, want)
		}
	}
	if res.Response.Mean() != 4 {
		t.Errorf("mean response = %g, want 4", res.Response.Mean())
	}
	if res.MaxQueue != 3 {
		t.Errorf("max queue = %d, want 3", res.MaxQueue)
	}
}

func TestRunWarmup(t *testing.T) {
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs([]float64{0, 10, 20, 30}))
	res := Run(nil, d, sched.NewFCFS(), src, Options{Warmup: 2})
	if res.Requests != 2 {
		t.Errorf("measured requests = %d, want 2", res.Requests)
	}
}

func TestRunMaxRequests(t *testing.T) {
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs(make([]float64, 100)))
	res := Run(nil, d, sched.NewFCFS(), src, Options{MaxRequests: 10})
	if res.Requests != 10 {
		t.Errorf("requests = %d, want 10", res.Requests)
	}
}

func TestRunSchedulerSeesArrivedOnly(t *testing.T) {
	// A request that arrives while another is in service must not be
	// dispatched before its arrival time.
	d := &fixedDevice{svc: 5}
	reqs := mkReqs([]float64{0, 1})
	src := workload.NewFromSlice(reqs)
	Run(nil, d, sched.NewFCFS(), src, Options{})
	if reqs[1].Start < reqs[1].Arrival {
		t.Errorf("request started at %g before arriving at %g", reqs[1].Start, reqs[1].Arrival)
	}
	if reqs[1].Start != 5 {
		t.Errorf("second request started at %g, want 5", reqs[1].Start)
	}
}

func TestRunIdlePeriods(t *testing.T) {
	// Device idles between well-spaced arrivals; utilization < 1 and
	// elapsed time tracks the last completion.
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs([]float64{0, 50}))
	res := Run(nil, d, sched.NewFCFS(), src, Options{})
	if res.Elapsed != 51 {
		t.Errorf("elapsed = %g, want 51", res.Elapsed)
	}
	if res.Busy != 2 {
		t.Errorf("busy = %g, want 2", res.Busy)
	}
}

func TestRunDeterministic(t *testing.T) {
	d := mems.MustDevice(mems.DefaultConfig())
	run := func() float64 {
		src := workload.DefaultRandom(800, 512, d.Capacity(), 2000, 11)
		res := Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100})
		return res.Response.Mean()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ: %g vs %g", a, b)
	}
}

func TestRunMEMSFasterThanDisk(t *testing.T) {
	// The headline device property: at the same moderate workload, the
	// MEMS device's mean response time is an order of magnitude below
	// the disk's.
	md := mems.MustDevice(mems.DefaultConfig())
	dd := disk.MustDevice(disk.Atlas10K())
	mres := Run(nil, md, sched.NewFCFS(), workload.DefaultRandom(50, 512, md.Capacity(), 3000, 1), Options{Warmup: 200})
	dres := Run(nil, dd, sched.NewFCFS(), workload.DefaultRandom(50, 512, dd.Capacity(), 3000, 1), Options{Warmup: 200})
	if mres.Response.Mean()*5 > dres.Response.Mean() {
		t.Errorf("MEMS %.3f ms vs disk %.3f ms: want ≥ 5× gap",
			mres.Response.Mean(), dres.Response.Mean())
	}
}

func TestSchedulingReducesResponseUnderLoad(t *testing.T) {
	// At high load on the MEMS device, SPTF must beat FCFS decisively
	// (Fig. 6a).
	d := mems.MustDevice(mems.DefaultConfig())
	run := func(s core.Scheduler) float64 {
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 8000, 3)
		return Run(nil, d, s, src, Options{Warmup: 500}).Response.Mean()
	}
	fcfs := run(sched.NewFCFS())
	sptf := run(sched.NewSPTF())
	if sptf*1.2 > fcfs {
		t.Errorf("SPTF %.3f ms vs FCFS %.3f ms at 1100 req/s: want clear win", sptf, fcfs)
	}
}

func TestRunClosedBackToBack(t *testing.T) {
	d := &fixedDevice{svc: 3}
	src := workload.NewFromSlice(mkReqs([]float64{0, 0, 0, 0}))
	res := RunClosed(nil, d, src, Options{})
	if res.Requests != 4 || res.Elapsed != 12 {
		t.Errorf("closed run: n=%d elapsed=%g", res.Requests, res.Elapsed)
	}
	if res.Service.Mean() != 3 {
		t.Errorf("service mean = %g", res.Service.Mean())
	}
	if res.Utilization() != 1 {
		t.Errorf("closed run utilization = %g, want 1", res.Utilization())
	}
}

func TestRunClosedMaxRequests(t *testing.T) {
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs(make([]float64, 50)))
	res := RunClosed(nil, d, src, Options{MaxRequests: 5})
	if res.Requests != 5 {
		t.Errorf("requests = %d", res.Requests)
	}
}

func TestResultString(t *testing.T) {
	var r Result
	if r.String() == "" || r.Utilization() != 0 {
		t.Error("zero result string/utilization")
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var order []int
	q.Schedule(3, func() { order = append(order, 3) })
	q.Schedule(1, func() { order = append(order, 1) })
	q.Schedule(2, func() { order = append(order, 2) })
	for q.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if q.Now() != 3 {
		t.Errorf("now = %g", q.Now())
	}
}

func TestEventQueueStableTies(t *testing.T) {
	var q EventQueue
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func() { order = append(order, i) })
	}
	for q.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestEventQueueCascade(t *testing.T) {
	// Events may schedule further events.
	var q EventQueue
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			q.Schedule(q.Now()+1, tick)
		}
	}
	q.Schedule(0, tick)
	for q.Step() {
	}
	if count != 5 {
		t.Errorf("cascade count = %d, want 5", count)
	}
	if q.Now() != 4 {
		t.Errorf("now = %g after the cascade, want 4", q.Now())
	}
}

func TestEventQueuePastPanics(t *testing.T) {
	var q EventQueue
	q.Schedule(5, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling in the past")
		}
	}()
	q.Schedule(1, func() {})
}

func TestRunMatchesMD1Theory(t *testing.T) {
	// Validate the queueing engine against theory: Poisson arrivals into
	// a deterministic server (M/D/1) have a known mean wait
	// W = ρ·S / (2(1−ρ)). Run at ρ = 0.6 and compare.
	const (
		svc  = 2.0 // ms
		rate = 300 // req/s → ρ = 0.6
		rho  = 0.6
	)
	d := &fixedDevice{svc: svc}
	src := workload.DefaultRandom(rate, 512, 1<<30, 200000, 123)
	res := Run(nil, d, sched.NewFCFS(), src, Options{Warmup: 5000})
	wantWait := rho * svc / (2 * (1 - rho)) // 1.5 ms
	gotWait := res.Response.Mean() - svc
	if math.Abs(gotWait-wantWait) > 0.15 {
		t.Errorf("M/D/1 mean wait = %.3f ms, theory %.3f ms", gotWait, wantWait)
	}
	// Utilization should match ρ.
	if math.Abs(res.Utilization()-rho) > 0.02 {
		t.Errorf("utilization = %.3f, want %.2f", res.Utilization(), rho)
	}
}

func TestContextProgress(t *testing.T) {
	d := &fixedDevice{svc: 1}
	src := workload.NewFromSlice(mkReqs(make([]float64, 25)))
	var at []int
	ctx := &Context{
		ProgressEvery: 10,
		OnProgress:    func(completed int, _ float64) { at = append(at, completed) },
	}
	Run(ctx, d, sched.NewFCFS(), src, Options{})
	if len(at) != 2 || at[0] != 10 || at[1] != 20 {
		t.Errorf("progress fired at %v, want [10 20]", at)
	}
	// A nil context is valid everywhere.
	src = workload.NewFromSlice(mkReqs(make([]float64, 3)))
	Run(nil, d, sched.NewFCFS(), src, Options{})
}

func TestContextProgressDefaultInterval(t *testing.T) {
	d := &fixedDevice{svc: 0.001}
	src := workload.NewFromSlice(mkReqs(make([]float64, 2500)))
	fired := 0
	ctx := &Context{OnProgress: func(int, float64) { fired++ }}
	RunClosed(ctx, d, src, Options{})
	if fired != 2 { // defaults to every 1000 completions
		t.Errorf("default interval fired %d times, want 2", fired)
	}
}
