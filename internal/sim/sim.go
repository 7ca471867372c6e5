// Package sim is the discrete-event simulation substrate standing in for
// DiskSim (§3): an open-arrival, single-server queueing system in which
// timestamped requests arrive from a workload source, wait in a scheduler
// queue, and are serviced one at a time by a mechanically-detailed device
// model.
//
// The simulator is deterministic: identical sources, schedulers and
// devices produce identical results.
package sim

import (
	"context"
	"fmt"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

// Context carries run-scoped observability through the simulation entry
// points (Run, RunClosed, RunVolume). It separates *how a run is watched*
// from Options, which describe *what is simulated*: the parallel
// experiment runner and the interactive CLIs thread a Context through
// without touching the experiment declarations. A nil *Context is valid
// and observes nothing.
type Context struct {
	// OnProgress, when non-nil, is invoked after every ProgressEvery
	// completions (warmup included) with the completion count and the
	// current simulated time in milliseconds.
	OnProgress func(completed int, simMs float64)
	// ProgressEvery is the completion interval between OnProgress calls;
	// zero or negative means 1000.
	ProgressEvery int
	// Ctx, when non-nil, makes the run cancellable: the event loop polls
	// Ctx.Done() every CancelEvery events and, once cancelled, stops
	// dispatching, finalizes normally, and marks the Result Cancelled.
	// A nil Ctx (or context.Background, whose Done channel is nil) keeps
	// the poll-free fast path, so uncancellable runs stay byte-identical
	// to runs predating cancellation support.
	Ctx context.Context
	// CancelEvery is the event interval between cancellation polls; zero
	// or negative selects DefaultCancelEvery. Smaller values tighten
	// cancellation latency at a (tiny) per-event cost.
	CancelEvery int
}

// DefaultCancelEvery is the event interval between cancellation polls
// when Context.CancelEvery is unset: frequent enough that cancellation
// lands within microseconds of wall-clock, sparse enough that the hot
// loop's cost is dominated by event dispatch, not polling.
const DefaultCancelEvery = 1024

// done returns the cancellation channel the event loop polls: nil for a
// nil Context, a nil Ctx, or a Ctx that can never be cancelled
// (context.Background reports a nil Done channel), all of which keep
// the poll-free fast path.
func (c *Context) done() <-chan struct{} {
	if c == nil || c.Ctx == nil {
		return nil
	}
	return c.Ctx.Done()
}

// progress reports one completion, firing OnProgress on interval
// boundaries. Safe on a nil receiver.
func (c *Context) progress(completed int, simMs float64) {
	if c == nil || c.OnProgress == nil {
		return
	}
	every := c.ProgressEvery
	if every <= 0 {
		every = 1000
	}
	if completed%every == 0 {
		c.OnProgress(completed, simMs)
	}
}

// Options tunes a simulation run.
type Options struct {
	// Warmup excludes the first N completed requests from the reported
	// statistics, hiding cold-start transients.
	Warmup int
	// MaxRequests stops the run after this many completions (0 = run the
	// source dry).
	MaxRequests int
	// OnComplete, when non-nil, observes every completed request
	// (including warmup ones).
	OnComplete func(*core.Request)
	// Injector, when non-nil, drives deterministic fault injection through
	// the run (Run, RunClosed, and RunVolume's member visits): transient
	// positioning errors recovered by bounded device-level retry at the
	// §6.1.3 penalty, scheduled tip failures evolving the redundancy
	// array mid-run, and ECC-reconstruction surcharges on degraded-stripe
	// reads. The injector is Reset alongside the device and scheduler. A
	// zero-rate, event-free injector reproduces the no-injector run byte
	// for byte.
	Injector *fault.Injector
	// Probe, when non-nil, observes typed request-lifecycle events
	// (arrive, dispatch, per-phase service, retry/requeue, complete)
	// through Run, RunClosed and RunVolume. A nil Probe is zero-cost and
	// byte-identical to an unprobed run. Probes with run-scoped state
	// (PhaseCollector) are reset alongside the device and scheduler.
	Probe Probe
	// Sketch switches every percentile-bearing aggregate the run owns —
	// the PhaseCollector's PhaseStats (per-run and per-member) and
	// RunVolume's VolumeStats distributions — from the exact
	// sample-retaining backend to the bounded quantile sketch
	// (stats.Sketch): p95/p99 become estimates within the sketch's
	// documented relative-error bound (±1%) and stats memory becomes
	// O(1) in the request count, which is what makes million-request
	// runs tractable. The default (false) keeps the exact backend and
	// stays byte-identical to historical runs — the golden equivalence
	// suite pins it. Moments (mean, CV², min/max) are Welford-computed
	// either way and never change.
	Sketch bool
	// Check enables run-time self-verification: the engine attaches an
	// engine-owned InvariantProbe (composed after any declared Probe) and
	// panics at finalize on any violation — request conservation, event
	// clock monotonicity, negative phase times, breakdown reconciliation
	// drift beyond 1e-9, invalid request classes. Violations indicate a
	// simulation bug, so they follow the EventQueue convention of
	// panicking rather than returning an error; the runner converts the
	// panic into the job's Err. Probe attachment is behavior-neutral
	// (golden-equivalence discipline), so a clean checked run produces
	// byte-identical results to an unchecked one.
	Check bool
}

// Result summarizes a run. Response time (queue + service) and its
// squared coefficient of variation are the paper's two scheduler metrics
// (§4.1).
type Result struct {
	// Requests is the number of completions measured (after warmup).
	Requests int
	// Response accumulates response times in ms.
	Response stats.Welford
	// Service accumulates device service times in ms.
	Service stats.Welford
	// QueueLen accumulates the queue length seen at each dispatch.
	QueueLen stats.Welford
	// MaxQueue is the largest queue length observed.
	MaxQueue int
	// Busy is the total device busy time in ms.
	Busy float64
	// Elapsed is the completion time of the last request in ms.
	Elapsed float64
	// Cancelled reports that Context.Ctx was cancelled (deadline,
	// interrupt) before the run finished. The Result is a well-formed
	// partial: every statistic covers the completions that happened
	// before the stop, and Elapsed is the simulated time reached.
	Cancelled bool

	// The fault-injection counters below cover the entire run, warmup
	// included — they describe the run's fault activity, not the measured
	// window — and stay zero without an injector. Failed requests are
	// excluded from Requests and the Response/Service statistics, so the
	// paper's metrics keep their meaning under injection.

	// Retries is the number of transient-error retries charged.
	Retries int
	// Recovered is the number of requests that suffered at least one
	// transient error but still completed successfully.
	Recovered int
	// FailedRequests is the number of requests that exhausted every retry
	// and requeue and completed in error.
	FailedRequests int
	// DegradedReads is the number of reads that paid ECC reconstruction
	// for sectors on a degraded stripe.
	DegradedReads int
	// Requeues is the number of scheduler requeues after failed service
	// visits.
	Requeues int
	// RecoveryMs is the total added recovery time in ms (retry penalties
	// plus ECC surcharges).
	RecoveryMs float64
	// LostReads is the number of reads that addressed unrecoverable
	// sectors (a stripe past its ECC budget, or a lost volume) and
	// completed in error instead of being silently served. Each is also
	// counted in FailedRequests.
	LostReads int
	// DataLoss reports that the run ended with unrecoverable data: the
	// injector's tip array exceeded its ECC budget in some stripe, or a
	// redundant volume suffered a second concurrent member failure.
	DataLoss bool

	// Phases holds the per-phase service aggregates when the run's Probe
	// contained a PhaseCollector; nil otherwise.
	Phases *PhaseStats

	// Members holds per-member-device aggregates for RunVolume runs;
	// nil for single-device runs.
	Members []MemberResult
	// Volume holds redundancy/failover aggregates for RunVolume runs;
	// nil otherwise.
	Volume *VolumeStats
}

// MemberResult aggregates one member device's share of a multi-queue
// run.
type MemberResult struct {
	// Requests counts the device's service visits: one per member
	// operation (rebuild traffic included) plus one per requeue. The
	// entire run is covered, warmup included.
	Requests int
	// Busy is the device's total busy time in ms.
	Busy float64
	// Phases holds the member's per-phase service aggregates when the
	// run's Probe contained a PhaseCollector; nil otherwise. It folds
	// one observation per service visit, warmup and rebuild visits
	// included.
	Phases *PhaseStats
}

// Utilization returns the fraction of elapsed time the device was busy.
func (r *Result) Utilization() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return r.Busy / r.Elapsed
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("n=%d mean-response=%.3fms cv²=%.2f mean-service=%.3fms util=%.0f%%",
		r.Requests, r.Response.Mean(), r.Response.SquaredCV(), r.Service.Mean(), r.Utilization()*100)
}

// requeue returns r to the scheduler after a failed service visit,
// preferring the scheduler's Requeue method (retried requests keep their
// place) over a plain Add.
func requeue(s core.Scheduler, r *core.Request) {
	if rq, ok := s.(core.Requeuer); ok {
		rq.Requeue(r)
		return
	}
	s.Add(r)
}

// classify tallies a finished request's fault outcome.
func classify(r *core.Request, res *Result) {
	if r.Failed {
		res.FailedRequests++
	} else if r.Retries > 0 {
		res.Recovered++
	}
	if r.Degraded {
		res.DegradedReads++
	}
}

// Run executes an open-arrival simulation: requests arrive at their
// source-assigned times, queue in s, and are serviced by d. The device
// and scheduler (and injector, if any) are Reset before the run. Under
// fault injection a request whose service visit exhausts its retry
// budget is requeued and serviced again later; past its requeue budget
// it completes as failed, excluded from the response statistics but
// counted in Result.FailedRequests.
func Run(ctx *Context, d core.Device, s core.Scheduler, src workload.Source, opts Options) Result {
	d.Reset()
	s.Reset()
	e := newEngine(ctx, opts)
	e.runOpen(d, s, src)
	e.loop()
	e.finalize()
	return e.res
}

// RunClosed executes a closed simulation: each request begins the
// moment the previous one completes (no queueing) — the regime of the
// data-placement experiments (§5.3), which compare average service
// times. When src implements workload.Thinker (workload.ThinkTime),
// each request additionally waits out a per-request think-time draw
// before issuing, modeling a multiprogrammed closed loop; plain sources
// keep the back-to-back behavior.
func RunClosed(ctx *Context, d core.Device, src workload.Source, opts Options) Result {
	d.Reset()
	e := newEngine(ctx, opts)
	e.runClosed(d, src)
	e.loop()
	e.finalize()
	return e.res
}

// ─── Generic event queue ───────────────────────────────────────────────
//
// EventQueue is the substrate under engine.go's discrete-event core: a
// minimal deterministic time-ordered event list with stable FIFO
// ordering for simultaneous events.

// Event is a timestamped callback.
type Event struct {
	Time float64
	Fn   func()

	seq int // insertion order, for stable ordering of ties
}

// EventQueue dispatches events in time order. The zero value is ready to
// use.
//
// The heap is hand-rolled over Event values rather than container/heap
// over pointers: Schedule is the engine's per-request hot path, and the
// value layout costs zero allocations per event (the backing array grows
// amortized and its capacity is reused for the rest of the run) where
// the interface-based heap paid one *Event allocation plus interface
// boxing per call.
type EventQueue struct {
	h   []Event
	seq int
	now float64
}

// Now returns the time of the most recently dispatched event.
func (q *EventQueue) Now() float64 { return q.now }

// Len reports the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// less orders events by time, then by insertion order for stable FIFO
// ties — the same comparator the simulator has always used.
func (q *EventQueue) less(i, j int) bool {
	if q.h[i].Time != q.h[j].Time {
		return q.h[i].Time < q.h[j].Time
	}
	return q.h[i].seq < q.h[j].seq
}

// Schedule enqueues fn to run at time t. Scheduling in the past (before
// the last dispatched event) panics: it indicates a simulation bug.
func (q *EventQueue) Schedule(t float64, fn func()) {
	if t < q.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before current time %g", t, q.now))
	}
	q.seq++
	q.h = append(q.h, Event{Time: t, Fn: fn, seq: q.seq})
	// Sift up.
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Step dispatches the earliest event; it reports whether one was run.
func (q *EventQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = Event{} // release the callback for GC
	q.h = q.h[:n]
	// Sift down.
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q.h[i], q.h[child] = q.h[child], q.h[i]
		i = child
	}
	q.now = top.Time
	top.Fn()
	return true
}
