// Package array implements inter-device redundancy (§6.2 of the paper):
// RAID-0 striping, RAID-1 mirroring, and RAID-5 rotating-parity arrays
// over any core.Device models. The paper's observation is that
// MEMS-based storage's near-zero repositioning for read-modify-write
// sequences (Table 2) removes the classic RAID-5 small-write penalty
// that motivated a decade of disk-array optimizations (parity logging,
// floating parity, log-structured arrays).
//
// One geometry and one planner serve both uses. A Volume (volume.go)
// realizes each request as a Plan of fork-join member operations;
// sim.RunVolume runs plans on per-member queues, and Array runs them
// synchronously as one core.Device: every operation of a phase starts
// when the phase does, and the phase lasts as long as its slowest
// operation. A RAID-5 small write is thus two phases (read old data +
// old parity; then write new data + new parity) whose second phase
// begins when the slowest first-phase member finishes.
package array

import (
	"fmt"

	"memsim/internal/core"
)

// Config parameterizes an array.
type Config struct {
	// Level is the redundancy scheme.
	Level VolumeLevel
	// StripeUnit is the number of consecutive sectors placed on one
	// member before moving to the next; mirrors rotate reads across
	// replicas in runs of this size.
	StripeUnit int
}

// Array combines member devices into one logical device.
type Array struct {
	members []core.Device
	vol     *Volume
	// plan and op are Access's reusable buffers: the request's plan and
	// the member request each operation is issued as.
	plan Plan
	op   core.Request
}

var _ core.Device = (*Array)(nil)

// New builds an array over the given members, which must be non-empty
// and of equal capacity and sector size. Each member contributes its
// capacity rounded down to whole stripe units; the level's member-count
// rules are VolumeConfig.Validate's.
func New(cfg Config, members []core.Device) (*Array, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("array: no members")
	}
	cap0 := members[0].Capacity()
	ss := members[0].SectorSize()
	for i, m := range members[1:] {
		if m.Capacity() != cap0 || m.SectorSize() != ss {
			return nil, fmt.Errorf("array: member %d geometry differs from member 0", i+1)
		}
	}
	unit := int64(cfg.StripeUnit)
	per := cap0
	if unit > 0 {
		per = cap0 / unit * unit
	}
	vol, err := NewVolume(VolumeConfig{
		Level: cfg.Level, Members: len(members), StripeUnit: unit, PerMember: per,
	})
	if err != nil {
		return nil, err
	}
	return &Array{members: members, vol: vol}, nil
}

// raidNumber names each level by its classic RAID number.
var raidNumber = [...]int{VolStripe: 0, VolMirror: 1, VolParity: 5}

// Name implements core.Device.
func (a *Array) Name() string {
	return fmt.Sprintf("RAID-%d×%d(%s)", raidNumber[a.vol.cfg.Level], len(a.members), a.members[0].Name())
}

// Capacity implements core.Device.
func (a *Array) Capacity() int64 { return a.vol.Capacity() }

// SectorSize implements core.Device.
func (a *Array) SectorSize() int { return a.members[0].SectorSize() }

// Reset implements core.Device; the failed-member state is preserved
// (use Repair to clear it).
func (a *Array) Reset() {
	for _, m := range a.members {
		m.Reset()
	}
}

// Members returns the member count.
func (a *Array) Members() int { return len(a.members) }

// FailMember marks member i failed; subsequent accesses run in degraded
// mode (RAID-1/5) or panic on data loss (RAID-0). It panics on an
// out-of-range index or a second failure (single-fault model).
func (a *Array) FailMember(i int) {
	if f := a.vol.Failed(); f >= 0 && f != i {
		panic("array: model supports a single failed member")
	}
	if err := a.vol.Fail(i); err != nil {
		panic(err)
	}
}

// Repair clears the failed-member state (after a rebuild).
func (a *Array) Repair() { a.vol.Reset() }

// Degraded reports whether a member is failed.
func (a *Array) Degraded() bool { return a.vol.Degraded() }

// replan refills a.plan with req under the current redundancy state,
// panicking when the addressed data is lost.
func (a *Array) replan(req *core.Request) {
	var ok bool
	if req.Op == core.Write {
		ok = a.vol.PlanWrite(&a.plan, req.LBN, req.Blocks)
	} else {
		ok = a.vol.PlanRead(&a.plan, req.LBN, req.Blocks)
	}
	if !ok {
		panic("array: access to a failed member of an unprotected array loses data")
	}
}

// phase issues every operation of ops at start through serve and
// returns the slowest one's service time.
func (a *Array) phase(ops []MemberOp, start float64, serve func(core.Device, *core.Request, float64) float64) float64 {
	max := 0.0
	for _, op := range ops {
		a.op = core.Request{Op: op.Op, LBN: op.LBN, Blocks: op.Blocks}
		if t := serve(a.members[a.vol.DeviceOf(op.Slot)], &a.op, start); t > max {
			max = t
		}
	}
	return max
}

// Access implements core.Device: the request's plan runs phase by
// phase, each starting when the previous one's slowest operation ends.
func (a *Array) Access(req *core.Request, now float64) float64 {
	a.replan(req)
	if a.plan.NumPhases() == 1 {
		return a.phase(a.plan.Phase(0), now, core.Device.Access)
	}
	end := now
	for i := 0; i < a.plan.NumPhases(); i++ {
		end += a.phase(a.plan.Phase(i), end, core.Device.Access)
	}
	return end - now
}

// EstimateAccess implements core.Device: the slowest member estimate of
// the plan's first phase, a lower bound on Access that mutates no
// member. Later phases would need member-state snapshots the devices do
// not expose, so the array is meant for FCFS or LBN-based schedulers,
// which never call it.
func (a *Array) EstimateAccess(req *core.Request, now float64) float64 {
	a.replan(req)
	return a.phase(a.plan.Phase(0), now, core.Device.EstimateAccess)
}

// RebuildTime estimates the time (ms) to reconstruct a failed member
// onto a spare: every surviving member is read in full, streaming, while
// the spare is written — the array reads dominate, so the estimate is
// the slowest member's sequential scan of its PerMember sectors in
// chunks of scanChunk sectors.
func (a *Array) RebuildTime(scanChunk int) float64 {
	if scanChunk <= 0 {
		panic(fmt.Sprintf("array: scan chunk must be positive, got %d", scanChunk))
	}
	per := a.vol.cfg.PerMember
	worst := 0.0
	for i, m := range a.members {
		if i == a.vol.Failed() {
			continue
		}
		m.Reset()
		now := 0.0
		for lbn := int64(0); lbn < per; lbn += int64(scanChunk) {
			n := scanChunk
			if left := per - lbn; int64(n) > left {
				n = int(left)
			}
			now += m.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: n}, now)
		}
		if now > worst {
			worst = now
		}
	}
	return worst
}
