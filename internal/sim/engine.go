// engine.go is the single discrete-event core behind every simulation
// entry point. The three public regimes — Run (open arrivals), RunClosed
// (back-to-back with optional think time), RunVolume (fork-join volume
// of member devices: striped, mirrored or parity) — are thin adapters
// that wire three plug points into one engine:
//
//   - an arrival process: a lazy open-arrival pump (runOpen), a closed
//     issue chain with per-request think-time draws (runClosed), or an
//     eager arrival chain (chainArrivals, used by the volume);
//   - a service target: a single device+scheduler, or a memberSet of
//     per-device queues addressed by an array.Volume plan;
//   - a shared completion path (complete): warmup gating, failed-request
//     exclusion, probe emission, progress, MaxRequests stop.
//
// Every service visit in every regime flows through serveVisit, so
// fault injection — transient retries, requeues, lost-sector reads, ECC
// surcharges — behaves identically whether the request is served by a
// lone device or a volume member.
//
// Determinism contract: the engine schedules at most one pending
// arrival per source (chained), one completion per busy device, and
// regime-specific background events (rebuild chunks, device failures)
// on a stable-FIFO EventQueue, so identical inputs replay an identical
// event sequence — and therefore identical statistics and probe streams
// — regardless of host or probe attachment.
package sim

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/workload"
)

// engine holds one run's shared state: the event queue, the accumulated
// Result, and the observability plumbing every regime threads through.
type engine struct {
	ctx  *Context
	opts Options
	inj  *fault.Injector
	p    Probe
	q    EventQueue
	res  Result

	arrived   int
	completed int
	stopped   bool
	runErr    error
	check     *InvariantProbe
}

// newEngine builds an engine for one run, resetting the injector and
// any run-scoped probe state. Devices and schedulers are reset by the
// regime adapters, which own them.
func newEngine(ctx *Context, opts Options) *engine {
	e := &engine{ctx: ctx, opts: opts, inj: opts.Injector, p: opts.Probe}
	if e.inj != nil {
		e.inj.Reset()
	}
	resetProbe(e.p)
	if opts.Sketch {
		applySketch(e.p)
	}
	if opts.Check {
		e.check = NewInvariantProbe()
		if e.p == nil {
			e.p = e.check
		} else {
			e.p = MultiProbe{e.p, e.check}
		}
	}
	return e
}

// loop dispatches events until the queue drains or a regime stops the
// run (MaxRequests). With a cancellable Context the loop
// additionally polls the cancellation channel every CancelEvery events;
// the common uncancellable case keeps the bare dispatch loop.
func (e *engine) loop() {
	done := e.ctx.done()
	if done == nil {
		for !e.stopped && e.q.Step() {
		}
		return
	}
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	cancel := func() {
		e.stopped = true
		e.res.Cancelled = true
	}
	if cancelled() {
		// Already cancelled (an expired deadline, a batch-wide interrupt
		// before this job started): stop before dispatching anything.
		cancel()
		return
	}
	every := e.ctx.CancelEvery
	if every <= 0 {
		every = DefaultCancelEvery
	}
	for n := 0; !e.stopped && e.q.Step(); {
		if n++; n%every == 0 && cancelled() {
			cancel()
		}
	}
}

// finalize closes the run: elapsed time, phase aggregates, and data
// loss latched from the injector's redundancy array. In check mode it
// then verifies the end-of-run invariants — every top-level arrival was
// completed when the run drained naturally, and the attached
// InvariantProbe saw no per-event violations — panicking on failure
// (the EventQueue convention: an invariant violation is a simulation
// bug, not an operational error).
func (e *engine) finalize() {
	e.res.Elapsed = e.q.Now()
	e.res.Phases = phaseStats(e.p)
	if e.inj != nil && e.inj.Array() != nil && e.inj.Array().DataLoss() {
		e.res.DataLoss = true
	}
	for _, iv := range findInvariantProbes(e.p) {
		iv.finishRun(&e.res)
	}
	if e.opts.Check {
		if !e.stopped && e.arrived != e.completed {
			panic(fmt.Sprintf("sim: invariant violated: %d arrivals but %d completions in a drained run", e.arrived, e.completed))
		}
		if err := e.check.Err(); err != nil {
			panic(err.Error())
		}
	}
}

// serveVisit runs one service visit for r on d at time now, applying
// fault injection when the engine carries an injector: scheduled tip
// events fire first, then transient positioning errors are retried
// inline — each charged the device's §6.1.3 recovery penalty — up to
// the injector's per-visit budget, and surviving degraded-stripe reads
// pay ECC reconstruction. It returns the visit's total device time,
// the visit's phase breakdown (zero unless a probe is attached), and
// whether the request must go back to its scheduler for another visit.
//
// r is the request the device serves (a member op under RunVolume);
// sink is the request whose Phases accumulate the breakdown (the
// volume-level parent under RunVolume, r itself elsewhere); dev tags
// probe events with the member index (0 for single-device regimes).
func (e *engine) serveVisit(d core.Device, r, sink *core.Request, dev int, now float64) (svc float64, bd core.Breakdown, again bool) {
	p := e.p
	serviced := func() {
		if p == nil {
			return
		}
		sink.Phases.Accumulate(bd)
		p.Observe(ProbeEvent{Kind: EventService, Time: now + svc, Dev: dev, Req: r, Breakdown: bd})
	}
	inj := e.inj
	if inj == nil {
		svc = d.Access(r, now)
		if p != nil {
			bd = breakdownOf(d, svc)
			serviced()
		}
		return svc, bd, false
	}
	inj.Advance(now)
	svc = d.Access(r, now)
	if p != nil {
		bd = breakdownOf(d, svc)
	}
	if r.Op == core.Read && inj.LostBlocks(r.LBN, r.Blocks) > 0 {
		// The addressed sectors are unrecoverable (stripe past its ECC
		// budget): the request fails outright — no retry or requeue can
		// bring the data back, and serving it silently would be a
		// correctness bug, not a performance event.
		r.Failed = true
		e.res.LostReads++
		serviced()
		return svc, bd, false
	}
	retries := 0
	for inj.TransientError() {
		if retries >= inj.MaxRetries() {
			// The visit failed: requeue while budget remains, else the
			// request completes in error.
			if r.Requeues < inj.MaxRequeues() {
				r.Requeues++
				e.res.Requeues++
				serviced()
				return svc, bd, true
			}
			r.Failed = true
			serviced()
			return svc, bd, false
		}
		pen := inj.FallbackPenaltyMs()
		if rm, ok := d.(core.RecoveryModel); ok {
			pen = rm.ErrorPenalty(r, now+svc, inj.Draw())
		}
		retries++
		r.Retries++
		r.RecoveryMs += pen
		e.res.Retries++
		e.res.RecoveryMs += pen
		svc += pen
		if p != nil {
			bd.Recovery += pen
			bd.ServiceMs += pen
			p.Observe(ProbeEvent{Kind: EventRetry, Time: now + svc, Dev: dev, Req: r,
				Breakdown: core.Breakdown{Recovery: pen, ServiceMs: pen}})
		}
	}
	if r.Op == core.Read {
		if n := inj.DegradedBlocks(r.LBN, r.Blocks); n > 0 {
			sur := float64(n) * inj.ECCSurchargeMs()
			r.Degraded = true
			r.RecoveryMs += sur
			e.res.RecoveryMs += sur
			svc += sur
			if p != nil {
				bd.Recovery += sur
				bd.ServiceMs += sur
			}
		}
	}
	serviced()
	return svc, bd, false
}

// complete is the shared completion path: every top-level request in
// every regime finishes here. It advances the completion count, fires
// progress and the EventComplete probe, invokes OnComplete, optionally
// tallies the fault outcome (tally — single-device regimes with an
// injector; RunVolume keeps its own richer tallies), and folds the
// request into the measured statistics when it is past warmup and not
// failed. qlen < 0 skips the queue-length statistics (closed regime).
// onDone, when non-nil, runs last with the measured flag for
// regime-specific accounting. Reaching MaxRequests stops the run.
func (e *engine) complete(now float64, r *core.Request, dev, qlen int, resp, svc float64, tally bool, onDone func(measured bool)) {
	e.completed++
	e.ctx.progress(e.completed, now)
	measured := e.completed > e.opts.Warmup && !r.Failed
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventComplete, Time: now, Dev: dev, Req: r, Measured: measured})
	}
	if e.opts.OnComplete != nil {
		e.opts.OnComplete(r)
	}
	if tally && e.inj != nil {
		classify(r, &e.res)
	}
	if measured {
		e.res.Requests++
		e.res.Response.Add(resp)
		e.res.Service.Add(svc)
		if qlen >= 0 {
			e.res.QueueLen.Add(float64(qlen))
			if qlen > e.res.MaxQueue {
				e.res.MaxQueue = qlen
			}
		}
	}
	if onDone != nil {
		onDone(measured)
	}
	if e.opts.MaxRequests > 0 && e.completed >= e.opts.MaxRequests {
		e.stopped = true
	}
}

// chainArrivals schedules src's stream as a linked chain of arrival
// events: each event delivers one request and then schedules the next,
// so simultaneous arrivals retain stream order and the heap holds at
// most one pending arrival. The volume regime uses this; the open
// single-device regime ingests lazily in runOpen instead.
//
// The chain carries its state in a run-long struct with a single stored
// fire func: because at most one arrival event is ever pending, each
// link can reuse the same func value instead of allocating a fresh
// closure per request (the engine's allocation diet).
func (e *engine) chainArrivals(src workload.Source, deliver func(*core.Request)) {
	c := &arrivalChain{e: e, src: src, deliver: deliver}
	c.fireFn = c.fire
	if first := src.Next(); first != nil {
		c.next = first
		e.q.Schedule(first.Arrival, c.fireFn)
	}
}

// arrivalChain is chainArrivals' run-long state: the pending request and
// the one reusable arrival callback.
type arrivalChain struct {
	e       *engine
	src     workload.Source
	deliver func(*core.Request)
	next    *core.Request
	fireFn  func()
}

func (c *arrivalChain) fire() {
	r := c.next
	c.e.arrived++
	c.deliver(r)
	if nx := c.src.Next(); nx != nil {
		c.next = nx
		c.e.q.Schedule(nx.Arrival, c.fireFn)
	}
}

// ─── Open single-device regime (Run) ───────────────────────────────────

// runOpen wires the open-arrival process to a single device+scheduler
// target. Arrivals are ingested lazily — every request that has arrived
// by the current event time enters the queue together, before the next
// dispatch — reproducing the historical synchronous loop exactly: the
// engine alternates dispatch→completion events, pumps the queue after
// each, and sleeps until the next arrival when idle.
func (e *engine) runOpen(d core.Device, s core.Scheduler, src workload.Source) {
	o := &openRun{e: e, d: d, s: s, src: src, next: src.Next()}
	o.pumpFn = o.pump
	o.doneFn = o.finish
	e.q.Schedule(0, o.pumpFn)
}

// openRun is runOpen's run-long state. The regime alternates
// dispatch→completion with at most one service in flight, so the
// completion event's parameters (request, queue length, finish time,
// requeue flag) live here and both callbacks are allocated once per run
// instead of once per dispatch.
type openRun struct {
	e    *engine
	d    core.Device
	s    core.Scheduler
	src  workload.Source
	next *core.Request

	// In-flight dispatch, consumed by finish.
	r     *core.Request
	qlen  int
	done  float64
	again bool

	pumpFn, doneFn func()
}

func (o *openRun) pump() {
	e := o.e
	if e.stopped {
		return
	}
	now := e.q.Now()
	// Ingest every request that has arrived by `now`.
	for o.next != nil && o.next.Arrival <= now {
		e.arrived++
		o.s.Add(o.next)
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventArrive, Time: o.next.Arrival, Req: o.next, Queue: o.s.Len()})
		}
		o.next = o.src.Next()
	}
	if o.s.Len() == 0 {
		if o.next != nil {
			// Idle until the next arrival.
			e.q.Schedule(o.next.Arrival, o.pumpFn)
		}
		return // else drained: the queue empties and the run ends
	}
	qlen := o.s.Len()
	r := o.s.Next(o.d, now)
	if r.Requeues == 0 {
		r.Start = now
	}
	if e.p != nil {
		e.p.Observe(ProbeEvent{Kind: EventDispatch, Time: now, Req: r, Queue: qlen, Class: r.Class})
	}
	svc, _, again := e.serveVisit(o.d, r, r, 0, now)
	e.res.Busy += svc
	o.r, o.qlen, o.done, o.again = r, qlen, now+svc, again
	e.q.Schedule(o.done, o.doneFn)
}

func (o *openRun) finish() {
	e := o.e
	if o.again {
		requeue(o.s, o.r)
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRequeue, Time: o.done, Req: o.r, Queue: o.s.Len()})
		}
	} else {
		o.r.Finish = o.done
		e.complete(o.done, o.r, 0, o.qlen, o.r.ResponseTime(), o.r.ServiceTime(), true, nil)
	}
	o.pump()
}

// ─── Closed regime (RunClosed) ─────────────────────────────────────────

// runClosed wires the closed arrival process — each request issues when
// the previous one completes — to a single-device target. When src
// implements workload.Thinker (see workload.ThinkTime), each issue is
// further delayed by that request's think-time draw, modeling a
// multiprogrammed closed loop; otherwise requests are back-to-back,
// byte-identical to the historical loop. With no queue to return to, a
// failed visit re-services the request immediately, spending the
// requeue budget in place.
func (e *engine) runClosed(d core.Device, src workload.Source) {
	think, _ := src.(workload.Thinker)
	c := &closedRun{e: e, d: d, src: src, think: think}
	c.issueFn = c.issue
	c.doneFn = c.finish
	if first := src.Next(); first != nil {
		c.r = first
		e.q.Schedule(c.delay(), c.issueFn)
	}
}

// closedRun is runClosed's run-long state: exactly one request is in
// play at a time (issue→completion→next issue), so the pending request
// and its accumulated times live here and the two callbacks are
// allocated once per run instead of twice per request.
type closedRun struct {
	e     *engine
	d     core.Device
	src   workload.Source
	think workload.Thinker

	// The request being issued or completed, and its visit totals.
	r        *core.Request
	t, total float64

	issueFn, doneFn func()
}

func (c *closedRun) delay() float64 {
	if c.think == nil {
		return 0
	}
	return c.think.ThinkMs()
}

func (c *closedRun) issue() {
	e, r := c.e, c.r
	e.arrived++
	now := e.q.Now()
	r.Arrival = now
	r.Start = now
	if e.p != nil {
		// Closed regime: arrival and dispatch coincide; the "queue"
		// is the request itself.
		e.p.Observe(ProbeEvent{Kind: EventArrive, Time: now, Req: r, Queue: 1})
		e.p.Observe(ProbeEvent{Kind: EventDispatch, Time: now, Req: r, Queue: 1, Class: r.Class})
	}
	t := now
	total := 0.0
	for {
		svc, _, again := e.serveVisit(c.d, r, r, 0, t)
		t += svc
		total += svc
		e.res.Busy += svc
		if !again {
			break
		}
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventRequeue, Time: t, Req: r, Queue: 1})
		}
	}
	c.t, c.total = t, total
	e.q.Schedule(t, c.doneFn)
}

func (c *closedRun) finish() {
	e, r := c.e, c.r
	r.Finish = c.t
	e.complete(c.t, r, 0, -1, c.total, c.total, true, nil)
	if e.stopped {
		return
	}
	if next := c.src.Next(); next != nil {
		c.r = next
		e.q.Schedule(e.q.Now()+c.delay(), c.issueFn)
	}
}

// ─── Member sets (RunVolume) ───────────────────────────────────────────

// memberSet is RunVolume's multi-queue service target: one scheduler
// queue per member device, per-member busy latches, and per-member
// result attribution.
type memberSet struct {
	devs   []core.Device
	scheds []core.Scheduler
	busy   []bool

	members []MemberResult
	// phases holds per-member phase aggregates when the probe carries a
	// PhaseCollector; nil otherwise.
	phases []PhaseStats
}

// newMemberSet resets the member devices and schedulers and sizes the
// attribution slices. With Options.Sketch the per-member phase
// aggregates use the bounded backend like the run-level collector.
func newMemberSet(devs []core.Device, scheds []core.Scheduler, e *engine) *memberSet {
	for i := range devs {
		devs[i].Reset()
		scheds[i].Reset()
	}
	ms := &memberSet{
		devs:    devs,
		scheds:  scheds,
		busy:    make([]bool, len(devs)),
		members: make([]MemberResult, len(devs)),
	}
	if findPhaseCollector(e.p) != nil {
		ms.phases = make([]PhaseStats, len(devs))
		if e.opts.Sketch {
			for i := range ms.phases {
				ms.phases[i].useSketch()
			}
		}
	}
	return ms
}

// attach publishes the per-member aggregates into res.
func (ms *memberSet) attach(res *Result) {
	for i := range ms.members {
		if ms.phases != nil {
			ms.members[i].Phases = &ms.phases[i]
		}
	}
	res.Members = ms.members
}
