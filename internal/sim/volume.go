// volume.go drives a multi-queue volume (array.Volume) — the one
// multi-device executor. A plain VolStripe volume is the paper's
// striped TPC-C testbed (a stripe unit equal to PerMember concatenates
// the members instead); redundant levels add whole-device failure,
// degraded-mode service, and online hot-spare rebuild — the array-scale
// counterpart of the §6 in-device failure machinery. A volume request
// fans out into fork-join phases of member operations (strip-sized
// pieces of a request that crosses strips, mirror replica writes,
// parity read-modify-write, k-peer degraded reconstruction), and a
// background rebuild process injects throttled chunk scans into the
// same member queues, competing with foreground traffic under the
// configured schedulers.
package sim

import (
	"fmt"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

// DefaultRebuildChunk is the rebuild scan unit in sectors when
// VolumeSpec.RebuildChunk is zero — one MEMS cylinder, the scan unit
// the raid artifact passes to array.Array.RebuildTime.
const DefaultRebuildChunk = 2700

// VolumeSpec describes a redundant volume run: the geometry/state
// machine, its physical member and spare devices (one scheduler queue
// each), and the online-rebuild policy.
type VolumeSpec struct {
	// Volume is the redundancy state machine; RunVolume resets it.
	Volume *array.Volume
	// Devices backs the volume's member slots then spares, in order;
	// len(Devices) must equal Volume.Config().Devices() and every
	// device must hold at least PerMember sectors.
	Devices []core.Device
	// Scheds provides one scheduler queue per device.
	Scheds []core.Scheduler
	// RebuildChunk is the rebuild scan unit in sectors (0 selects
	// DefaultRebuildChunk).
	RebuildChunk int
	// RebuildPolicy paces the rebuild; nil selects FixedRebuild{Frac: 1},
	// a flat-out rebuild.
	RebuildPolicy RebuildPolicy
}

// VolumeStats aggregates a RunVolume run's redundancy and failover
// activity. Counters cover the whole run, warmup included.
type VolumeStats struct {
	// DeviceFailures counts the scheduled whole-device failures fired.
	DeviceFailures int
	// RebuildsStarted and RebuildsDone count online rebuilds begun onto
	// a hot spare and completed (the spare permanently replacing the
	// failed member).
	RebuildsStarted, RebuildsDone int
	// RebuildChunks counts completed rebuild scan units.
	RebuildChunks int
	// RebuildMs sums failure→re-protected windows over completed
	// rebuilds: the volume's MTTR.
	RebuildMs float64
	// DegradedMs is the total time the volume served with reduced
	// redundancy (failed member not yet rebuilt, or data lost).
	DegradedMs float64
	// RebuildBusy is the member busy time consumed by rebuild I/O in ms.
	RebuildBusy float64
	// DegradedReads counts foreground reads served by peer
	// reconstruction (mirror survivor fallback is full-speed and not
	// counted; parity reconstruction is).
	DegradedReads int
	// DegradedWrites counts foreground writes executed with reduced
	// redundancy.
	DegradedWrites int
	// SpareReads counts foreground reads satisfied from the rebuilt
	// prefix of the hot spare mid-rebuild.
	SpareReads int
	// PaceChanges counts rebuild-pace changes the policy made mid-rebuild
	// (0 under the default fixed-fraction policy, which never varies).
	PaceChanges int
	// LostRequests counts foreground requests that completed in error
	// because their data was unreachable (lost volume or mid-flight
	// second failure).
	LostRequests int
	// Healthy and Degraded split measured foreground response times
	// (ms) by the volume's redundancy state at completion, so the
	// foreground penalty of degraded mode and rebuild interference is
	// directly readable (p95 included).
	Healthy, Degraded stats.Dist
	// ClassResponse splits response times by scheduling class:
	// measured foreground completions land in their class's slot
	// (foreground or degraded-read), and completed rebuild chunks
	// record their start→finish duration under ClassRebuild (whole
	// run — rebuilds are background work outside the warmup gate).
	// This is what makes a class-aware member scheduler's degraded-read
	// latency bound directly measurable.
	ClassResponse [core.NumClasses]stats.Dist
}

// useSketch flips the volume's response distributions to the bounded
// sketch backend (Options.Sketch).
func (v *VolumeStats) useSketch() {
	v.Healthy.UseSketch()
	v.Degraded.UseSketch()
	for i := range v.ClassResponse {
		v.ClassResponse[i].UseSketch()
	}
}

// volReq tracks one in-flight volume-level intent — a foreground
// request or a background rebuild chunk — through its fork-join phases
// of member operations. Intents are pooled for the run (volPool), each
// keeping its plan buffers and, for rebuild chunks, its own request.
type volReq struct {
	r *core.Request
	// own is the request a rebuild chunk tracks itself by; foreground
	// intents use the source's.
	own core.Request
	// id indexes the intent in volPool.all; its member requests carry
	// it as core.Request.Parent.
	id   int
	plan array.Plan
	// phase indexes the executing phase of plan; outstanding counts its
	// member ops still in flight.
	phase       int
	outstanding int
	// epoch is the volume redundancy generation the plan was made
	// under; a mismatch at issue time forces re-resolution of the
	// remaining phases against the new state.
	epoch int
	// started latches the first member-op dispatch (r.Start).
	started bool
	// qlen is the largest scheduler queue length any member op saw at
	// dispatch.
	qlen int

	rebuild     bool
	chunkBlocks int
	chunkStart  float64

	degradedRead  bool
	degradedWrite bool
	spareRead     bool
	// retried latches a member op that completed after at least one
	// transient-error retry.
	retried bool
}

// reset readies a pooled intent for request r planned under epoch,
// keeping its id and its plan's buffers.
func (vr *volReq) reset(r *core.Request, epoch int) {
	*vr = volReq{id: vr.id, plan: vr.plan, r: r, epoch: epoch}
}

// volPool is runVolume's run-long free lists: volume intents and the
// member requests forked from them. A member request is recycled once
// its last visit completes, and an intent once it finishes, so a run
// allocates only while its in-flight peak grows.
type volPool struct {
	all     []*volReq // every intent of the run, by id
	free    []*volReq
	members []*core.Request
}

// intent returns an idle intent, growing the table when none is free.
func (p *volPool) intent() *volReq {
	if n := len(p.free); n > 0 {
		vr := p.free[n-1]
		p.free = p.free[:n-1]
		return vr
	}
	vr := &volReq{id: len(p.all)}
	p.all = append(p.all, vr)
	return vr
}

// member returns an idle member request.
func (p *volPool) member() *core.Request {
	if n := len(p.members); n > 0 {
		mr := p.members[n-1]
		p.members = p.members[:n-1]
		return mr
	}
	return new(core.Request)
}

// volInflight is one member's in-flight service-completion state,
// consumed by the member's reusable completion callback.
type volInflight struct {
	mr    *core.Request
	vr    *volReq
	done  float64
	again bool
}

// RunVolume drives an open-arrival workload over a redundant volume.
// Arrivals plan into member operations under the volume's current
// redundancy state; scheduled device failures (Options.Injector's
// device-event schedule) flip members mid-run, after which reads are
// reconstructed from peers, writes pay the redundancy-update penalty,
// and a hot spare (if configured) is rebuilt online by throttled
// background chunk scans competing in the same member queues. Member
// operations are served through the shared engine visit path, so the
// injector's other fault classes — transient retries, member-queue
// requeues, lost-sector reads, ECC surcharges — apply to every member
// visit too; a member op that exhausts its budgets fails its parent
// volume request.
//
// Member-level operations emit arrive/dispatch/service probe events
// (Dev = physical device index); volume-level requests emit complete
// events; failover emits EventDeviceFail/EventRebuildStart/
// EventRebuildDone (Dev = member slot, Req = nil). Response statistics
// are per volume-level request; rebuild traffic is excluded from them
// but reported in Result.Volume.
//
// With no device failures scheduled the run is deterministic and
// behaviorally identical to a healthy volume.
func RunVolume(ctx *Context, spec VolumeSpec, src workload.Source, opts Options) (Result, error) {
	v := spec.Volume
	if v == nil {
		return Result{}, fmt.Errorf("sim: RunVolume needs a volume")
	}
	cfg := v.Config()
	devs, scheds := spec.Devices, spec.Scheds
	if len(devs) != cfg.Devices() || len(devs) != len(scheds) {
		return Result{}, fmt.Errorf("sim: volume wants %d devices, got %d devices with %d schedulers",
			cfg.Devices(), len(devs), len(scheds))
	}
	if src == nil {
		return Result{}, fmt.Errorf("sim: RunVolume needs a workload source")
	}
	for i, d := range devs {
		if d.Capacity() < cfg.PerMember {
			return Result{}, fmt.Errorf("sim: device %d (%s) holds %d sectors, member needs %d",
				i, d.Name(), d.Capacity(), cfg.PerMember)
		}
	}
	chunk := spec.RebuildChunk
	if chunk == 0 {
		chunk = DefaultRebuildChunk
	}
	if chunk < 0 {
		return Result{}, fmt.Errorf("sim: negative rebuild chunk %d", chunk)
	}
	policy := spec.RebuildPolicy
	if policy == nil {
		policy = FixedRebuild{Frac: 1}
	}
	if f, ok := policy.(FixedRebuild); ok && !(f.Frac > 0 && f.Frac <= 1) {
		return Result{}, fmt.Errorf("sim: rebuild fraction %g out of (0,1]", f.Frac)
	}
	policy.Reset()
	if inj := opts.Injector; inj != nil {
		for _, ev := range inj.DeviceEvents() {
			if ev.Dev >= cfg.Members {
				return Result{}, fmt.Errorf("sim: device failure targets member slot %d of %d",
					ev.Dev, cfg.Members)
			}
		}
	}

	v.Reset()
	e := newEngine(ctx, opts)
	ms := newMemberSet(devs, scheds, e)
	finish := e.runVolume(v, ms, src, chunk, policy)
	e.loop()
	e.finalize()
	finish()
	ms.attach(&e.res)
	return e.res, nil
}

// runVolume wires the eager arrival chain to a redundant fork-join
// member set. It returns a closure the adapter must call after the
// event loop drains, closing the still-open degraded window and
// publishing the volume aggregates.
func (e *engine) runVolume(v *array.Volume, ms *memberSet, src workload.Source, chunk int, policy RebuildPolicy) func() {
	var vstats VolumeStats
	if e.opts.Sketch {
		vstats.useSketch()
	}
	var pool volPool
	// repl is drainDead's buffer for one op's replacements.
	var repl []array.MemberOp
	// degradedSince and failStart track the open degraded window and
	// the active failure for MTTR accounting; -1 when closed.
	degradedSince := -1.0
	failStart := -1.0
	// lastPace is the policy's previous duty-cycle decision; -1 marks the
	// first decision of a rebuild, which establishes the baseline without
	// emitting a pace-change event.
	lastPace := -1.0

	var (
		dispatch   func(i int)
		issue      func(vr *volReq, now float64)
		startChunk func(now float64)
		// startChunkFn is the reusable "resume the rebuild" event callback
		// (at most one pending), and inflight/doneFns carry each member's
		// in-flight completion state and its one reusable completion
		// callback — the allocation diet's replacement for a fresh closure
		// per member dispatch.
		startChunkFn func()
		inflight     = make([]volInflight, len(ms.devs))
		doneFns      = make([]func(), len(ms.devs))
	)

	// memberClass tags a member op with its parent intent's scheduling
	// class at enqueue time, after any degraded-mode re-resolution, so
	// class-aware member schedulers see rebuild chunks and degraded
	// reconstruction reads for what they are.
	memberClass := func(vr *volReq) core.Class {
		switch {
		case vr.rebuild:
			return core.ClassRebuild
		case vr.degradedRead:
			return core.ClassDegradedRead
		default:
			return core.ClassForeground
		}
	}

	enqueue := func(vr *volReq, op array.MemberOp, now float64) {
		dev := v.DeviceOf(op.Slot)
		mr := pool.member()
		*mr = core.Request{Arrival: vr.r.Arrival, Op: op.Op, LBN: op.LBN, Blocks: op.Blocks,
			Class: memberClass(vr), Parent: int32(vr.id)}
		ms.scheds[dev].Add(mr)
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventArrive, Time: now, Dev: dev, Req: mr,
				Queue: ms.scheds[dev].Len()})
		}
		dispatch(dev)
	}

	// remap re-resolves the remaining phases of a stale plan against the
	// current redundancy state (after a failure or completed rebuild);
	// it may mark the parent request failed when its data is gone.
	remap := func(vr *volReq) {
		vr.epoch = v.Epoch()
		recon, ok := v.Replan(&vr.plan, vr.phase)
		if !ok {
			vr.r.Failed = true
		}
		if recon && !vr.rebuild && vr.r.Op == core.Read {
			vr.degradedRead = true
		}
	}

	// onDone folds the completing volume request (curVR, set by
	// finishReq) into the volume tallies. complete invokes it
	// synchronously, so one shared closure replaces a fresh one per
	// completion.
	var curVR *volReq
	onDone := func(measured bool) {
		vr := curVR
		r := vr.r
		// The volume keeps its own fault tallies (classify would
		// double-count): a failed foreground request is a lost
		// request at volume scope whatever first broke it.
		if r.Failed {
			e.res.FailedRequests++
			vstats.LostRequests++
			if r.Op == core.Read {
				e.res.LostReads++
			}
		} else if vr.retried {
			e.res.Recovered++
		}
		if vr.degradedRead {
			e.res.DegradedReads++
			vstats.DegradedReads++
		}
		if vr.degradedWrite {
			vstats.DegradedWrites++
		}
		if vr.spareRead {
			vstats.SpareReads++
		}
		if measured {
			if v.Degraded() || v.Lost() {
				vstats.Degraded.Add(r.ResponseTime())
			} else {
				vstats.Healthy.Add(r.ResponseTime())
			}
			vstats.ClassResponse[r.Class].Add(r.ResponseTime())
		}
	}

	finishReq := func(vr *volReq, now float64) {
		r := vr.r
		r.Finish = now
		r.Degraded = vr.degradedRead
		r.Class = memberClass(vr)
		curVR = vr
		e.complete(now, r, 0, vr.qlen, r.ResponseTime(), r.ServiceTime(), false, onDone)
	}

	chunkDone := func(vr *volReq, now float64) {
		if v.Lost() || !v.Rebuilding() {
			return // a second failure killed the rebuild mid-chunk
		}
		if vr.r.Failed {
			// A fault-injected member op exhausted its budgets mid-chunk:
			// the rebuild cursor did not advance, so re-scan the same
			// chunk rather than silently abandoning the rebuild.
			e.q.Schedule(now, startChunkFn)
			return
		}
		vstats.RebuildChunks++
		vstats.ClassResponse[core.ClassRebuild].Add(now - vr.chunkStart)
		v.Advance(vr.chunkBlocks)
		if v.RebuildDone() {
			slot := v.Failed()
			v.FinishRebuild()
			vstats.RebuildsDone++
			vstats.RebuildMs += now - failStart
			vstats.DegradedMs += now - degradedSince
			degradedSince, failStart = -1, -1
			if e.p != nil {
				e.p.Observe(ProbeEvent{Kind: EventRebuildDone, Time: now, Dev: slot})
			}
			return
		}
		// Throttle: ask the policy for the next duty cycle and idle after
		// the chunk so rebuild I/O occupies ~pace of the rebuilder's
		// timeline. At this instant every rebuild member op has completed,
		// so the summed queue depth is pure foreground backlog.
		fg := 0
		for i := range ms.scheds {
			fg += ms.scheds[i].Len()
		}
		pace := clampPace(policy.Pace(fg))
		if lastPace >= 0 && pace != lastPace {
			vstats.PaceChanges++
			if e.p != nil {
				e.p.Observe(ProbeEvent{Kind: EventRebuildPace, Time: now, Dev: v.Failed(),
					Queue: fg, Pace: pace})
			}
		}
		lastPace = pace
		gap := 0.0
		if pace < 1 {
			gap = (now - vr.chunkStart) * (1 - pace) / pace
		}
		e.q.Schedule(now+gap, startChunkFn)
	}

	// finish retires an intent whose every member op has completed.
	finish := func(vr *volReq, now float64) {
		if vr.rebuild {
			chunkDone(vr, now)
		} else {
			finishReq(vr, now)
		}
		pool.free = append(pool.free, vr)
	}

	// issue advances a volume intent to its next non-empty phase and
	// forks that phase's member operations into the queues.
	issue = func(vr *volReq, now float64) {
		for {
			if vr.epoch != v.Epoch() {
				remap(vr)
			}
			if vr.r.Failed || vr.phase >= vr.plan.NumPhases() {
				finish(vr, now)
				return
			}
			ops := vr.plan.Phase(vr.phase)
			if len(ops) == 0 {
				vr.phase++
				continue
			}
			vr.outstanding = len(ops)
			for _, op := range ops {
				enqueue(vr, op, now)
			}
			return
		}
	}

	opDone := func(vr *volReq, now float64) {
		vr.outstanding--
		if vr.outstanding > 0 {
			return
		}
		vr.phase++
		issue(vr, now)
	}

	dispatch = func(i int) {
		if ms.busy[i] || e.stopped {
			return
		}
		now := e.q.Now()
		qlen := ms.scheds[i].Len()
		mr := ms.scheds[i].Next(ms.devs[i], now)
		if mr == nil {
			return
		}
		ms.busy[i] = true
		vr := pool.all[mr.Parent]
		if !vr.started {
			vr.started = true
			vr.r.Start = now
		}
		if qlen > vr.qlen {
			vr.qlen = qlen
		}
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventDispatch, Time: now, Dev: i, Req: mr, Queue: qlen,
				Class: mr.Class})
		}
		// The shared visit path accumulates the member op's phase
		// breakdown into the parent volume request and applies fault
		// injection (transient retries, lost-sector reads, surcharges).
		svc, bd, again := e.serveVisit(ms.devs[i], mr, vr.r, i, now)
		mr.Start, mr.Finish = now, now+svc
		ms.members[i].Requests++
		ms.members[i].Busy += svc
		e.res.Busy += svc
		if vr.rebuild {
			vstats.RebuildBusy += svc
		}
		if ms.phases != nil {
			ms.phases[i].add(bd, mr.Class)
		}
		fl := &inflight[i]
		fl.mr, fl.vr, fl.done, fl.again = mr, vr, now+svc, again
		e.q.Schedule(now+svc, doneFns[i])
	}

	for i := range doneFns {
		i := i
		doneFns[i] = func() {
			fl := &inflight[i]
			mr, vr := fl.mr, fl.vr
			ms.busy[i] = false
			if fl.again {
				// The visit exhausted its retries with requeue budget
				// left: the member op goes back to its own queue and the
				// fork-join leg stays outstanding.
				requeue(ms.scheds[i], mr)
				if e.p != nil {
					e.p.Observe(ProbeEvent{Kind: EventRequeue, Time: fl.done, Dev: i, Req: mr,
						Queue: ms.scheds[i].Len()})
				}
			} else {
				if mr.Failed {
					// The member op exhausted every budget (or addressed
					// lost sectors): its parent volume request fails.
					vr.r.Failed = true
				}
				if mr.Retries > 0 {
					vr.retried = true
				}
				pool.members = append(pool.members, mr)
				opDone(vr, e.q.Now())
			}
			dispatch(i)
		}
	}

	startChunk = func(now float64) {
		if e.stopped || v.Lost() || !v.Rebuilding() {
			return
		}
		vr := pool.intent()
		vr.reset(&vr.own, v.Epoch())
		blocks := v.PlanRebuildChunk(&vr.plan, chunk)
		if blocks == 0 {
			pool.free = append(pool.free, vr)
			return
		}
		vr.own = core.Request{Arrival: now, Op: core.Read, LBN: -1, Blocks: blocks, Class: core.ClassRebuild}
		vr.rebuild, vr.chunkBlocks, vr.chunkStart = true, blocks, now
		issue(vr, now)
	}
	startChunkFn = func() { startChunk(e.q.Now()) }

	// drainDead empties a dead device's queue, re-resolving each queued
	// member operation against the post-failure state (peer
	// reconstruction, spare redirection, or dropped redundancy writes);
	// an op whose data is unreachable fails its parent request. The op
	// in service, if any, completes normally — it was already on the
	// bus when the device died.
	drainDead := func(devIdx, slot int, now float64) {
		for {
			mr := ms.scheds[devIdx].Next(ms.devs[devIdx], now)
			if mr == nil {
				return
			}
			vr := pool.all[mr.Parent]
			var recon, ok bool
			repl, recon, ok = v.ReplaceDeadOp(repl[:0], array.MemberOp{
				Slot: slot, Op: mr.Op, LBN: mr.LBN, Blocks: mr.Blocks})
			pool.members = append(pool.members, mr)
			if !ok {
				vr.r.Failed = true
			}
			if recon && !vr.rebuild && vr.r.Op == core.Read {
				vr.degradedRead = true
			}
			vr.outstanding += len(repl) - 1
			for _, rop := range repl {
				enqueue(vr, rop, now)
			}
			if vr.outstanding == 0 {
				vr.phase++
				issue(vr, now)
			}
		}
	}

	failSlot := func(slot int, now float64) {
		if v.Lost() || slot == v.Failed() {
			return
		}
		deadDev := v.SlotDevice(slot)
		first := !v.Degraded()
		if err := v.Fail(slot); err != nil {
			return // unreachable: slots were validated upfront
		}
		vstats.DeviceFailures++
		if first {
			degradedSince, failStart = now, now
		}
		if e.p != nil {
			e.p.Observe(ProbeEvent{Kind: EventDeviceFail, Time: now, Dev: slot})
		}
		if v.Lost() {
			e.res.DataLoss = true
		}
		drainDead(deadDev, slot, now)
		if first && !v.Lost() && v.BeginRebuild() {
			vstats.RebuildsStarted++
			lastPace = -1 // each rebuild re-baselines the pace
			if e.p != nil {
				e.p.Observe(ProbeEvent{Kind: EventRebuildStart, Time: now, Dev: slot})
			}
			startChunk(now)
		}
	}

	// Scheduled device failures fire from the injector's device-event
	// schedule; they are enqueued before the arrival chain so a failure
	// coinciding with an arrival fires first (stable FIFO ties).
	if e.inj != nil {
		for _, ev := range e.inj.DeviceEvents() {
			ev := ev
			e.q.Schedule(ev.AtMs, func() { failSlot(ev.Dev, e.q.Now()) })
		}
	}
	// Arrival chain: plan each foreground request under the current
	// redundancy state and fork its first phase.
	e.chainArrivals(src, func(r *core.Request) {
		now := e.q.Now()
		vr := pool.intent()
		vr.reset(r, v.Epoch())
		var ok bool
		if r.Op == core.Read {
			ok = v.PlanRead(&vr.plan, r.LBN, r.Blocks)
		} else {
			ok = v.PlanWrite(&vr.plan, r.LBN, r.Blocks)
		}
		switch {
		case !ok:
			// The addressed data is lost: fail without touching a device
			// rather than silently serving stale sectors.
			r.Failed = true
			r.Start = now
			vr.started = true
		case r.Op == core.Read:
			vr.degradedRead = vr.plan.Reconstructed
			vr.spareRead = vr.plan.SpareRead
		default:
			vr.degradedWrite = vr.plan.DegradedWrite
		}
		issue(vr, now)
	})

	return func() {
		if degradedSince >= 0 {
			vstats.DegradedMs += e.res.Elapsed - degradedSince
		}
		if v.Lost() {
			e.res.DataLoss = true
		}
		e.res.Volume = &vstats
	}
}
