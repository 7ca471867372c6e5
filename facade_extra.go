package memsim

import (
	"math/rand"

	"memsim/internal/array"
	"memsim/internal/bus"
	"memsim/internal/cache"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/layout"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// ─── Data placement (§5) ────────────────────────────────────────────────

// Placer is a data-placement policy for the §5.3 bipartite workload.
type Placer = layout.Placer

// PlacementClass distinguishes the small and large request populations.
type PlacementClass = layout.Class

// SmallClass and LargeClass are the two §5.3 request populations.
const (
	SmallClass = layout.Small
	LargeClass = layout.Large
)

// NewMEMSSimpleLayout places both classes uniformly (the Fig. 11
// baseline).
func NewMEMSSimpleLayout(g *MEMSGeometry) Placer { return layout.NewMEMSSimple(g) }

// NewMEMSOrganPipeLayout packs the small population into the centermost
// cylinders — the layout that is optimal for disks.
func NewMEMSOrganPipeLayout(g *MEMSGeometry, smallFrac float64) Placer {
	return layout.NewMEMSOrganPipe(g, smallFrac)
}

// NewMEMSColumnarLayout divides the LBN space into columns of contiguous
// cylinders (25 in the paper), small data in the center column.
func NewMEMSColumnarLayout(g *MEMSGeometry, columns int) Placer {
	return layout.NewMEMSColumnar(g, columns)
}

// NewMEMSSubregionedLayout is the n×n (5×5) grid layout of §5.3,
// confining small data in both X and Y.
func NewMEMSSubregionedLayout(g *MEMSGeometry, n int) Placer {
	return layout.NewMEMSSubregioned(g, n)
}

// NewDiskSimpleLayout and NewDiskOrganPipeLayout are the disk-side
// baselines of Fig. 11.
func NewDiskSimpleLayout(d *DiskDevice) Placer { return layout.NewDiskSimple(d) }

// NewDiskOrganPipeLayout packs the small population into the disk's
// center cylinders.
func NewDiskOrganPipeLayout(d *DiskDevice, smallFrac float64) Placer {
	return layout.NewDiskOrganPipe(d, smallFrac)
}

// BipartiteConfig parameterizes the §5.3 workload (89% 4 KB / 11%
// 400 KB reads).
type BipartiteConfig = workload.BipartiteConfig

// DefaultBipartiteConfig returns the paper's §5.3 parameters.
func DefaultBipartiteConfig(seed int64) BipartiteConfig { return workload.DefaultBipartite(seed) }

// NewBipartiteWorkload builds the §5.3 workload over a placement policy.
func NewBipartiteWorkload(cfg BipartiteConfig, p Placer) WorkloadSource {
	return workload.NewBipartite(cfg, p)
}

// ─── Failure management (§6) ────────────────────────────────────────────

// FaultConfig describes the redundancy structure of a tip array
// (striping width, ECC tips, spare pool).
type FaultConfig = fault.Config

// FaultArray tracks tip failures, spare remappings, and recoverability.
type FaultArray = fault.Array

// DefaultFaultConfig returns the default redundancy: 64-tip stripes, 2
// ECC tips, 130 spares.
func DefaultFaultConfig() FaultConfig { return fault.DefaultConfig() }

// NewFaultArray builds a FaultArray.
func NewFaultArray(cfg FaultConfig) (*FaultArray, error) { return fault.NewArray(cfg) }

// LossProbability estimates P(data loss | k random tip failures) by
// Monte Carlo.
func LossProbability(cfg FaultConfig, k, trials int, rng *rand.Rand) (float64, error) {
	return fault.LossProbability(cfg, k, trials, rng)
}

// ErasureCode is the systematic Reed-Solomon code used for horizontal
// tip-sector ECC (§6.1.2).
type ErasureCode = fault.RS

// NewErasureCode builds a code with k data and m parity shards.
func NewErasureCode(k, m int) (*ErasureCode, error) { return fault.NewRS(k, m) }

// FaultInjector drives deterministic in-simulation fault injection:
// transient positioning errors recovered by bounded device-level retry,
// scheduled tip failures evolving the redundancy array mid-run, and
// ECC-reconstruction surcharges on degraded-stripe reads. Pass one via
// SimOptions.Injector.
type FaultInjector = fault.Injector

// FaultInjectorConfig declares a fault-injection scenario.
type FaultInjectorConfig = fault.InjectorConfig

// TipFaultEvent schedules one tip failure or grown media defect at a
// simulated time.
type TipFaultEvent = fault.TipEvent

// DefaultFaultInjectorConfig returns the retry envelope used by the
// fault-injection experiments.
func DefaultFaultInjectorConfig() FaultInjectorConfig { return fault.DefaultInjectorConfig() }

// NewFaultInjector validates cfg and builds an injector ready for a run.
func NewFaultInjector(cfg FaultInjectorConfig) (*FaultInjector, error) { return fault.NewInjector(cfg) }

// SlipRemapDevice wraps a device with a disk-style defective-sector
// remap table, modeling the sequentiality-breaking penalty that MEMS
// spare-tip remapping avoids (§6.1.1).
type SlipRemapDevice = fault.SlipRemap

// NewSlipRemapDevice wraps dev with an empty remap table.
func NewSlipRemapDevice(dev Device) *SlipRemapDevice { return fault.NewSlipRemap(dev) }

// ─── Arrays (§6.2) ──────────────────────────────────────────────────────

// ArrayConfig parameterizes a device array: its Level is a VolumeLevel
// (VolumeStripe, VolumeMirror or VolumeParity for RAID-0, -1 and -5).
type ArrayConfig = array.Config

// DeviceArray combines member devices into one logical device by
// running the same member-operation plans as SimulateVolume, one phase
// at a time; RAID-5 small writes pay the read-modify-write sequence
// whose cost Table 2 compares across device types.
type DeviceArray = array.Array

// NewDeviceArray builds an array over equal-geometry members.
func NewDeviceArray(cfg ArrayConfig, members []Device) (*DeviceArray, error) {
	return array.New(cfg, members)
}

// ─── Device cache (§2.4.11) ─────────────────────────────────────────────

// CacheConfig parameterizes the on-device speed-matching buffer.
type CacheConfig = cache.Config

// CachedDevice wraps a device with a segment-LRU read buffer and
// sequential read-ahead.
type CachedDevice = cache.Cache

// DefaultCacheConfig returns a 4 MB buffer with track-sized segments and
// read-ahead.
func DefaultCacheConfig() CacheConfig { return cache.DefaultConfig() }

// NewCachedDevice wraps dev with the buffer.
func NewCachedDevice(dev Device, cfg CacheConfig) *CachedDevice { return cache.New(dev, cfg) }

// ─── Shared interconnect ────────────────────────────────────────────────

// BusConfig parameterizes a shared host interconnect.
type BusConfig = bus.Config

// Bus is one shared interconnect; attached devices contend for it.
type Bus = bus.Bus

// Ultra160BusConfig returns an Ultra160-SCSI-like bus.
func Ultra160BusConfig() BusConfig { return bus.Ultra160() }

// NewBus builds a bus.
func NewBus(cfg BusConfig) *Bus { return bus.New(cfg) }

// ─── Extensions ─────────────────────────────────────────────────────────

// NewAgedSPTF returns the aged-SPTF scheduler extension: positioning
// estimates are discounted by weight · queue-wait, bounding the tails
// that pure SPTF inflates near saturation.
func NewAgedSPTF(weight float64) Scheduler { return sched.NewASPTF(weight) }

// MEMSConfigGen2 and MEMSConfigGen3 are extrapolated future device
// generations for sensitivity studies (see internal/mems/generations.go
// for the caveats).
func MEMSConfigGen2() MEMSConfig { return mems.ConfigGen2() }

// MEMSConfigGen3 is the third-generation extrapolation.
func MEMSConfigGen3() MEMSConfig { return mems.ConfigGen3() }

// ─── Cost-model scheduling framework ────────────────────────────────────

// RequestClass tags a request's role for class-aware scheduling:
// foreground, degraded-read, or rebuild.
type RequestClass = core.Class

// The request classes.
const (
	ClassForeground   = core.ClassForeground
	ClassDegradedRead = core.ClassDegradedRead
	ClassRebuild      = core.ClassRebuild
)

// CostModel scores a candidate request for dispatch (lower is better);
// cost-model schedulers take one instead of hard-wiring the device's
// service estimate.
type CostModel = core.CostModel

// AccessCost is the classic SPTF scoring function: the device's full
// estimated service time.
func AccessCost(d Device, r *Request, now float64) float64 { return core.AccessCost(d, r, now) }

// SettleAwareCost scores by estimated service minus the unschedulable
// settle phase, so ties break on avoidable seek work.
func SettleAwareCost(d Device, r *Request, now float64) float64 {
	return core.SettleAwareCost(d, r, now)
}

// EstimateBreakdown returns the estimated per-phase decomposition of
// serving r on d at time now without changing device state; devices
// that cannot decompose report a bare ServiceMs.
func EstimateBreakdown(d Device, r *Request, now float64) Breakdown {
	return core.EstimateBreakdown(d, r, now)
}

// NewSettleAwareScheduler returns the settle-aware SPTF variant.
func NewSettleAwareScheduler() Scheduler { return sched.NewSettleAware() }

// NewPriorityScheduler returns the class-band scheduler (degraded-read
// > foreground > rebuild, SPTF within a band) with the default
// age-promotion starvation bound.
func NewPriorityScheduler() Scheduler { return sched.NewPriority() }

// NewPrioritySchedulerWith returns a Priority scheduler over an
// arbitrary cost model and promotion threshold in ms (≤ 0 disables
// promotion).
func NewPrioritySchedulerWith(cost CostModel, promoteMs float64) Scheduler {
	return sched.NewPriorityWith(cost, promoteMs)
}

// NewCostScheduler returns an SPTF-style queue over an arbitrary cost
// model, reported under the given name.
func NewCostScheduler(name string, cost CostModel) Scheduler {
	return sched.NewCostSPTF(name, cost)
}

// ─── Multi-device volumes and failover (device-level §6.2, dynamic) ─────

// VolumeLevel selects a volume's geometry.
type VolumeLevel = array.VolumeLevel

// The supported volume levels.
const (
	VolumeStripe = array.VolStripe
	VolumeMirror = array.VolMirror
	VolumeParity = array.VolParity
)

// VolumeConfig parameterizes a redundant volume (members, hot spares,
// stripe unit, per-member capacity).
type VolumeConfig = array.VolumeConfig

// Volume is the geometry and failover state machine of a redundant
// volume: address translation, degraded-mode service plans, hot-spare
// failover and watermark-tracked online rebuild.
type Volume = array.Volume

// NewVolume validates cfg and builds a healthy volume.
func NewVolume(cfg VolumeConfig) (*Volume, error) { return array.NewVolume(cfg) }

// DeviceFailureEvent schedules a whole-device failure at a simulated
// time; pass a schedule via FaultInjectorConfig.DeviceEvents and run the
// volume with SimulateVolume.
type DeviceFailureEvent = fault.DeviceEvent

// VolumeSpec assembles a volume simulation: the volume, one device and
// scheduler queue per slot (members first, then spares), and the online
// rebuild policy.
type VolumeSpec = sim.VolumeSpec

// VolumeStats reports a volume run's failover metrics: failures served,
// rebuild MTTR, degraded windows, and healthy- vs degraded-mode
// response distributions.
type VolumeStats = sim.VolumeStats

// MemberStats attributes a multi-device run's work to one member slot.
type MemberStats = sim.MemberResult

// SimulateVolume drives an open workload over a multi-device volume,
// each member with its own scheduler queue. A VolumeStripe volume
// stripes the members like the paper's TPC-C testbed; a stripe unit
// equal to PerMember concatenates them. Redundant levels survive
// scheduled device failures via degraded-mode service, hot-spare
// failover and throttled online rebuild. Failover metrics land in
// SimResult.Volume.
func SimulateVolume(spec VolumeSpec, src WorkloadSource, opts SimOptions) (SimResult, error) {
	return sim.RunVolume(nil, spec, src, opts)
}

// ─── Availability under failure (lifetime model + rebuild pacing) ───────

// RebuildPolicy paces a volume's online rebuild; set one on
// VolumeSpec.RebuildPolicy. Implementations must be deterministic.
type RebuildPolicy = sim.RebuildPolicy

// FixedRebuildPolicy is the constant-duty-cycle throttle: rebuild I/O
// occupies roughly Frac of the rebuilder's timeline. A nil
// VolumeSpec.RebuildPolicy selects FixedRebuildPolicy{Frac: 1}, a
// flat-out rebuild; SimulateVolume rejects a Frac outside (0,1].
type FixedRebuildPolicy = sim.FixedRebuild

// AdaptiveRebuildPolicy backs the rebuild off as foreground queue depth
// grows and sprints when the queues are idle, trading MTTR against
// foreground latency automatically.
type AdaptiveRebuildPolicy = sim.AdaptiveRebuild

// DeviceLifetimeModel draws whole-device failure times from per-slot
// exponential lifetime streams (seeded, deterministic); attach one via
// FaultInjectorConfig.Lifetime to have the injector draw device
// failures instead of — or in addition to — fixed schedules.
type DeviceLifetimeModel = fault.LifetimeModel

// LifetimeSampler draws exponential lifetimes one at a time, the
// primitive under Monte-Carlo availability estimates.
type LifetimeSampler = fault.LifetimeSampler

// NewLifetimeSampler returns a sampler with the given mean (ms) and seed.
func NewLifetimeSampler(mttfMs float64, seed int64) *LifetimeSampler {
	return fault.NewLifetimeSampler(mttfMs, seed)
}

// TimeToDataLoss simulates one volume lifetime as a renewal process —
// member failure, vulnerable rebuild window, repair or second failure —
// and returns the simulated time of the first data loss (ok=false if
// maxCycles elapsed without one).
func TimeToDataLoss(s *LifetimeSampler, members int, windowMs float64, maxCycles int) (float64, bool) {
	return fault.TimeToDataLoss(s, members, windowMs, maxCycles)
}
