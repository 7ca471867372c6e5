// Package core defines the abstractions shared by every layer of the
// simulator: storage requests, position-aware device models, request
// schedulers, and block-remapping layouts. Device models (internal/mems,
// internal/disk), schedulers (internal/sched), layouts (internal/layout)
// and the simulation engine (internal/sim) all meet at these interfaces.
//
// Times are float64 milliseconds of simulated time; logical block numbers
// (LBNs) address fixed-size sectors.
package core

import "fmt"

// Op distinguishes reads from writes.
type Op int

const (
	Read Op = iota
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one storage request. The simulator fills in the bookkeeping
// fields (Start, Finish) as the request flows through the queue.
type Request struct {
	// Arrival is the simulated time (ms) the request entered the system.
	Arrival float64
	// Op is the request direction.
	Op Op
	// LBN is the first logical block addressed.
	LBN int64
	// Blocks is the number of consecutive logical blocks addressed.
	Blocks int
	// Class tags the request's role (foreground, degraded-read, rebuild)
	// for class-aware scheduling and per-class accounting. The zero value
	// is ClassForeground, so untagged requests behave exactly as before.
	Class Class
	// Parent belongs to the simulator, which sets it only on the member
	// operations a redundant volume run forks from a volume request: it
	// indexes that request in the run's own table. Devices and
	// schedulers ignore it. It fills Class's padding, so a Request is no
	// larger for it.
	Parent int32

	// Start is the time service began (set by the simulator).
	Start float64
	// Finish is the time service completed (set by the simulator).
	Finish float64

	// The remaining fields are fault-injection accounting, filled by the
	// simulator only when a run carries an injector; without one they stay
	// zero and the request behaves exactly as before.

	// Retries counts transient positioning errors recovered by device-level
	// retry (§6.1.3), each charged to the request's service time.
	Retries int
	// Requeues counts the times the request was returned to the scheduler
	// queue after a service visit exhausted its device-level retry budget.
	Requeues int
	// RecoveryMs is the total added recovery time in ms: retry penalties
	// plus any ECC-reconstruction surcharge for degraded-stripe reads.
	RecoveryMs float64
	// Degraded marks a read that touched a degraded stripe (a failed,
	// unremapped tip) and paid ECC reconstruction.
	Degraded bool
	// Failed marks a request that exhausted every retry and requeue and
	// completed in error.
	Failed bool

	// Phases accumulates the per-phase service breakdown across the
	// request's service visits (device time only; queue wait is not a
	// phase). The simulator fills it only when the run carries a
	// sim.Probe; without one it stays zero and the request is untouched.
	Phases Breakdown
}

// ResponseTime returns queue time plus service time, the paper's primary
// performance metric.
func (r *Request) ResponseTime() float64 { return r.Finish - r.Arrival }

// ServiceTime returns the time the device spent on the request.
func (r *Request) ServiceTime() float64 { return r.Finish - r.Start }

// Bytes returns the request's size in bytes given the device sector size.
func (r *Request) Bytes(sectorSize int) int64 {
	return int64(r.Blocks) * int64(sectorSize)
}

// Device is a mechanically-detailed storage device model. Implementations
// are stateful: Access advances the device's mechanical position (and, for
// disks, consumes rotational time), so the service time of a request
// depends on the requests that preceded it.
type Device interface {
	// Name identifies the model in reports (e.g. "MEMS G1", "Atlas10K").
	Name() string

	// Capacity returns the number of addressable logical blocks.
	Capacity() int64

	// SectorSize returns the logical block size in bytes.
	SectorSize() int

	// Access services req beginning at simulated time now and returns
	// the service time in milliseconds, advancing the device state.
	Access(req *Request, now float64) float64

	// EstimateAccess returns exactly what Access would return for req at
	// time now, without changing device state. Shortest-positioning-time
	// -first scheduling is built on this.
	EstimateAccess(req *Request, now float64) float64

	// Reset restores the initial mechanical state.
	Reset()
}

// Scheduler orders pending requests. Implementations are not safe for
// concurrent use; the discrete-event simulator is single-threaded.
type Scheduler interface {
	// Name identifies the algorithm in reports (e.g. "SPTF").
	Name() string

	// Add enqueues a pending request.
	Add(r *Request)

	// Next removes and returns the request to service next, given the
	// device whose state determines positioning costs and the current
	// simulated time. It returns nil when no requests are pending.
	Next(d Device, now float64) *Request

	// Len reports the number of pending requests.
	Len() int

	// Reset discards all pending requests and any algorithm state.
	Reset()
}

// RecoveryModel is implemented by device models that can price the
// recovery cost of a transient positioning error (§6.1.3). Disks pay a
// short re-seek plus rotational re-miss; MEMS devices pay only
// turnarounds plus a short repositioning seek, because the sled's motion
// is fully controlled (§2.4.8). The fault-injection layer charges this
// penalty once per retried attempt.
type RecoveryModel interface {
	// ErrorPenalty returns the recovery cost in ms of one transient
	// positioning error for req at simulated time now. u ∈ [0,1) is the
	// injector's uniform draw selecting where in the recovery envelope the
	// retry lands (for disks, the rotational fraction; for MEMS, the
	// turnaround count).
	ErrorPenalty(req *Request, now, u float64) float64
}

// Requeuer is optionally implemented by schedulers that distinguish
// requeued (retried) requests from fresh arrivals. The simulator prefers
// Requeue over Add when returning a request whose service visit failed;
// schedulers without the method treat retries like new arrivals.
type Requeuer interface {
	Requeue(r *Request)
}

// DeviceFactory constructs a fresh, unshared Device. Device models are
// stateful and not safe for concurrent use, so the parallel experiment
// runner builds one instance per job rather than sharing a reset device
// between runs.
type DeviceFactory func() Device

// SchedulerFactory constructs a fresh, unshared Scheduler, for the same
// reason as DeviceFactory: schedulers carry queue state and are not safe
// for concurrent use.
type SchedulerFactory func() Scheduler

// Layout remaps logical blocks before they reach the device, implementing
// the data-placement schemes of §5 of the paper. Map must be a total
// function on [0, capacity); layouts that are bijections preserve
// capacity, and tests enforce this for all shipped layouts.
type Layout interface {
	// Name identifies the layout in reports (e.g. "organ-pipe").
	Name() string

	// Map translates a file-system-level block number to a device LBN.
	Map(lbn int64) int64
}

// IdentityLayout is the trivial pass-through layout ("simple" in the
// paper's Fig. 11).
type IdentityLayout struct{}

// Name implements Layout.
func (IdentityLayout) Name() string { return "simple" }

// Map implements Layout.
func (IdentityLayout) Map(lbn int64) int64 { return lbn }
