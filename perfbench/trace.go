package main

import (
	"slices"
	"time"

	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

var epoch = time.Now()

// clock returns monotonic nanoseconds since the benchmark started.
func clock() int64 { return int64(time.Since(epoch)) }

// span totals one kind of call into a layer.
type span struct {
	ns    int64
	calls int64
}

func (s *span) add(ns int64) {
	s.ns += ns
	s.calls++
}

func (s *span) mean() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// tracer times the calls the engine makes into each layer's public
// interface, from wrappers that forward to the program's own objects.
// The engine is single-threaded, so the tracer needs no locking.
type tracer struct {
	access, estimate, penalty span // device
	next, add                 span // scheduler; next holds self time
	observe                   span // stats (the phase collector)
	source                    span // workload source

	// Scheduler Next bookkeeping: device time and estimate calls nested
	// inside the Next in progress, the queue depth each Next saw, and
	// each Next's self time for the percentile.
	inNext       bool
	nestedNs     int64
	nextEstimate int64
	depth        int64
	nextSelf     []int32

	// observeStart is when the collector's Observe began.
	observeStart int64

	// pairs holds one (from, to) cylinder pair per MEMS device call,
	// packed as from<<16 | to, for the physics replay.
	pairs []uint32
}

// startRun begins a traced run. Totals accumulate over every traced
// run; the seek pairs are kept for the latest run only.
func (t *tracer) startRun() { t.pairs = t.pairs[:0] }

// deviceTime charges one device call that began at t0 to s, and to the
// enclosing scheduler Next if there is one.
func (t *tracer) deviceTime(s *span, t0 int64, estimate bool) {
	dt := clock() - t0
	s.add(dt)
	if t.inNext {
		t.nestedNs += dt
		if estimate {
			t.nextEstimate++
		}
	}
}

// wrap returns traced stand-ins for one run's objects. The collector is
// bracketed rather than wrapped: the engine finds a PhaseCollector by
// its concrete type (to publish Result.Phases, switch it to the sketch
// backend and reset it), so it must stay a direct element of a
// sim.MultiProbe, which the engine descends into.
func (t *tracer) wrap(devs []core.Device, scheds []core.Scheduler, src workload.Source, pc *sim.PhaseCollector) ([]core.Device, []core.Scheduler, workload.Source, sim.Probe) {
	tdevs := make([]core.Device, len(devs))
	for i, d := range devs {
		td := &tracedDevice{inner: d.(fullDevice), t: t}
		td.mems, _ = d.(*mems.Device)
		tdevs[i] = td
	}
	tscheds := make([]core.Scheduler, len(scheds))
	for i, s := range scheds {
		tscheds[i] = &tracedScheduler{inner: s, t: t}
	}
	probe := sim.MultiProbe{observeEnter{t}, pc, observeExit{t}}
	return tdevs, tscheds, &tracedSource{inner: src, t: t}, probe
}

// fullDevice is the interface set the engine and the cost models look
// for on a device. Both of the program's device models implement all
// of it, so the wrapper can forward each method unconditionally.
type fullDevice interface {
	core.Device
	core.BreakdownReporter
	core.BreakdownEstimator
	core.RecoveryModel
}

// tracedDevice times Access, EstimateAccess, EstimateBreakdown and
// ErrorPenalty. For a MEMS device it also records the X seek each call
// starts with: the sled's current cylinder to the request's first one.
type tracedDevice struct {
	inner fullDevice
	mems  *mems.Device
	t     *tracer
}

var _ fullDevice = (*tracedDevice)(nil)

func (d *tracedDevice) Name() string    { return d.inner.Name() }
func (d *tracedDevice) Capacity() int64 { return d.inner.Capacity() }
func (d *tracedDevice) SectorSize() int { return d.inner.SectorSize() }
func (d *tracedDevice) Reset()          { d.inner.Reset() }
func (d *tracedDevice) LastBreakdown() (core.Breakdown, bool) {
	return d.inner.LastBreakdown()
}

func (d *tracedDevice) recordSeek(r *core.Request) {
	if d.mems == nil {
		return
	}
	from, _, _ := d.mems.State()
	to, _, _, _ := d.mems.Geometry().Decompose(r.LBN)
	d.t.pairs = append(d.t.pairs, uint32(from)<<16|uint32(to))
}

func (d *tracedDevice) Access(r *core.Request, now float64) float64 {
	d.recordSeek(r)
	t0 := clock()
	v := d.inner.Access(r, now)
	d.t.deviceTime(&d.t.access, t0, false)
	return v
}

func (d *tracedDevice) EstimateAccess(r *core.Request, now float64) float64 {
	d.recordSeek(r)
	t0 := clock()
	v := d.inner.EstimateAccess(r, now)
	d.t.deviceTime(&d.t.estimate, t0, true)
	return v
}

func (d *tracedDevice) EstimateBreakdown(r *core.Request, now float64) core.Breakdown {
	d.recordSeek(r)
	t0 := clock()
	v := d.inner.EstimateBreakdown(r, now)
	d.t.deviceTime(&d.t.estimate, t0, true)
	return v
}

func (d *tracedDevice) ErrorPenalty(r *core.Request, now, u float64) float64 {
	t0 := clock()
	v := d.inner.ErrorPenalty(r, now, u)
	d.t.deviceTime(&d.t.penalty, t0, false)
	return v
}

// tracedScheduler times Add, Requeue and Next; Next's time excludes
// the device calls nested inside it.
type tracedScheduler struct {
	inner core.Scheduler
	t     *tracer
}

var _ core.Requeuer = (*tracedScheduler)(nil)

func (s *tracedScheduler) Name() string { return s.inner.Name() }
func (s *tracedScheduler) Len() int     { return s.inner.Len() }
func (s *tracedScheduler) Reset()       { s.inner.Reset() }

func (s *tracedScheduler) Add(r *core.Request) {
	t0 := clock()
	s.inner.Add(r)
	s.t.add.add(clock() - t0)
}

// Requeue forwards to the scheduler's own Requeue, or to Add for a
// scheduler without one, exactly as the engine would.
func (s *tracedScheduler) Requeue(r *core.Request) {
	t0 := clock()
	if rq, ok := s.inner.(core.Requeuer); ok {
		rq.Requeue(r)
	} else {
		s.inner.Add(r)
	}
	s.t.add.add(clock() - t0)
}

func (s *tracedScheduler) Next(d core.Device, now float64) *core.Request {
	t := s.t
	t.depth += int64(s.inner.Len())
	t.inNext, t.nestedNs = true, 0
	t0 := clock()
	r := s.inner.Next(d, now)
	self := clock() - t0 - t.nestedNs
	t.inNext = false
	t.next.add(self)
	t.nextSelf = append(t.nextSelf, int32(self))
	return r
}

// tracedSource times the workload source's Next.
type tracedSource struct {
	inner workload.Source
	t     *tracer
}

func (s *tracedSource) Next() *core.Request {
	t0 := clock()
	r := s.inner.Next()
	s.t.source.add(clock() - t0)
	return r
}

// observeEnter and observeExit bracket the phase collector inside a
// sim.MultiProbe, timing its Observe.
type observeEnter struct{ t *tracer }
type observeExit struct{ t *tracer }

func (o observeEnter) Observe(sim.ProbeEvent) { o.t.observeStart = clock() }
func (o observeExit) Observe(sim.ProbeEvent)  { o.t.observe.add(clock() - o.t.observeStart) }

// nextP99 returns the 99th percentile of Next self time in ns.
func (t *tracer) nextP99() float64 {
	if len(t.nextSelf) == 0 {
		return 0
	}
	s := slices.Clone(t.nextSelf)
	slices.Sort(s)
	return float64(s[len(s)*99/100])
}

// physics replays the recorded cylinder pairs through mems SeekX on a
// fresh device and returns ns per seek and the share of distinct pairs:
// the lowest miss rate an exact seek memo could reach.
func (t *tracer) physics() (nsPerSeek, distinctFrac float64, err error) {
	if len(t.pairs) == 0 {
		return 0, 0, nil
	}
	d, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		return 0, 0, err
	}
	t0 := clock()
	for _, p := range t.pairs {
		seekSink += d.SeekX(int(p>>16), int(p&0xffff))
	}
	ns := clock() - t0
	cyls := d.Geometry().Cylinders
	seen := make([]uint64, (cyls*cyls+63)/64)
	distinct := 0
	for _, p := range t.pairs {
		i := int(p>>16)*cyls + int(p&0xffff)
		if seen[i/64]&(1<<(i%64)) == 0 {
			seen[i/64] |= 1 << (i % 64)
			distinct++
		}
	}
	n := float64(len(t.pairs))
	return float64(ns) / n, float64(distinct) / n, nil
}

// Sinks keep the measured loops' results live.
var (
	seekSink  float64
	clockSink int64
)

// timerPairNs measures what one clock() start/stop pair costs, the
// overhead each timed call adds to the traced run.
func timerPairNs() float64 {
	const n = 1 << 20
	best := 0.0
	for round := 0; round < 5; round++ {
		t0 := clock()
		for i := 0; i < n; i++ {
			a := clock()
			clockSink += clock() - a
		}
		per := float64(clock()-t0) / n
		if round == 0 || per < best {
			best = per
		}
	}
	return best
}
