// volume.go implements device-level redundancy: striped, mirrored and
// rotated-parity volume geometries whose member translation is
// Router-compatible, plus the failure / hot-spare / online-rebuild
// state machine. A Volume owns no clock and no devices; it only answers
// "which member operations realize this volume request under the
// current redundancy state?". sim.RunVolume executes the answers on
// independent member queues, and Array (array.go) executes them
// synchronously as one core.Device.
//
// The model is single-fault: one failed member at a time is served in
// degraded mode (mirror reads fall to the surviving replica; parity
// reads are reconstructed from the k surviving peers) while a hot
// spare, when configured, is rebuilt online. A second concurrent
// failure loses data: the volume refuses to serve requests after that
// point rather than silently returning lost sectors.
package array

import (
	"fmt"

	"memsim/internal/core"
)

// VolumeLevel selects the redundancy of a volume, and of the Array
// built on one.
type VolumeLevel int

const (
	// VolStripe stripes with no redundancy (RAID-0): any member failure
	// loses data.
	VolStripe VolumeLevel = iota
	// VolMirror replicates every block on all members (RAID-1).
	VolMirror
	// VolParity rotates block-interleaved parity (left-symmetric
	// RAID-5).
	VolParity
)

// String implements fmt.Stringer.
func (l VolumeLevel) String() string {
	switch l {
	case VolStripe:
		return "stripe"
	case VolMirror:
		return "mirror"
	case VolParity:
		return "parity"
	default:
		return fmt.Sprintf("VolumeLevel(%d)", int(l))
	}
}

// VolumeConfig parameterizes a redundant volume.
type VolumeConfig struct {
	// Level is the redundancy scheme.
	Level VolumeLevel
	// Members is the number of active member slots (data plus
	// redundancy; for VolMirror, the replica count).
	Members int
	// Spares is the number of hot-spare devices appended after the
	// members, available for online rebuild after a member failure.
	Spares int
	// StripeUnit is the number of consecutive sectors placed on one
	// member before rotating to the next; VolMirror uses it only to
	// spread reads across replicas.
	StripeUnit int64
	// PerMember is the usable capacity of each member in sectors; it
	// must not exceed any member device's capacity and must be a
	// multiple of StripeUnit.
	PerMember int64
}

// Validate reports configuration errors.
func (c VolumeConfig) Validate() error {
	switch {
	case c.Members <= 0:
		return fmt.Errorf("array: volume needs at least one member, got %d", c.Members)
	case c.Spares < 0:
		return fmt.Errorf("array: negative spare count %d", c.Spares)
	case c.StripeUnit <= 0:
		return fmt.Errorf("array: stripe unit must be positive, got %d", c.StripeUnit)
	case c.PerMember <= 0:
		return fmt.Errorf("array: per-member capacity must be positive, got %d", c.PerMember)
	case c.PerMember%c.StripeUnit != 0:
		return fmt.Errorf("array: per-member capacity %d not a multiple of stripe unit %d",
			c.PerMember, c.StripeUnit)
	case c.Level == VolMirror && c.Members < 2:
		return fmt.Errorf("array: mirror needs at least 2 members, got %d", c.Members)
	case c.Level == VolParity && c.Members < 3:
		return fmt.Errorf("array: parity needs at least 3 members, got %d", c.Members)
	}
	switch c.Level {
	case VolStripe, VolMirror, VolParity:
		return nil
	default:
		return fmt.Errorf("array: unknown volume level %d", int(c.Level))
	}
}

// Capacity returns the volume's addressable sectors.
func (c VolumeConfig) Capacity() int64 {
	n := int64(c.Members)
	switch c.Level {
	case VolStripe:
		return c.PerMember * n
	case VolMirror:
		return c.PerMember
	default: // VolParity
		return c.PerMember * (n - 1)
	}
}

// Devices returns the number of physical devices the volume needs
// (members plus spares).
func (c VolumeConfig) Devices() int { return c.Members + c.Spares }

// MemberOp is one member-level operation realizing part of a volume
// request: an access of Blocks sectors at member address LBN on the
// device currently backing Slot.
type MemberOp struct {
	// Slot is the member slot (volume position, not device index);
	// resolve to a physical device with Volume.DeviceOf.
	Slot int
	// Op is the access direction.
	Op core.Op
	// LBN is the first member-local sector addressed.
	LBN int64
	// Blocks is the number of consecutive sectors.
	Blocks int
}

// Plan is the member-operation realization of one volume request:
// phases execute in order, with every operation of a phase issued
// concurrently (fork) and the next phase starting when all complete
// (join) — the shape of a RAID-5 read-modify-write.
type Plan struct {
	// Phases are the fork-join stages.
	Phases [][]MemberOp
	// Reconstructed marks a read served by peer reconstruction (the
	// degraded-mode ECC path at array scale).
	Reconstructed bool
	// SpareRead marks a read satisfied from the already-rebuilt region
	// of the hot spare mid-rebuild.
	SpareRead bool
	// DegradedWrite marks a write that executed with reduced
	// redundancy (a failed data or parity member).
	DegradedWrite bool
}

// Volume is the failover state machine over a volume geometry. It is
// not safe for concurrent use; sim.RunVolume drives one per run, and
// each Array owns one.
type Volume struct {
	cfg VolumeConfig
	// slots maps member slot → physical device index. Initially the
	// identity; a completed rebuild swaps the spare in.
	slots []int
	// spares holds unused spare device indices, ascending.
	spares []int
	// failed is the failed member slot, or -1.
	failed int
	// spareDev is the device being rebuilt onto mid-rebuild, or -1.
	spareDev int
	// watermark is the rebuilt prefix of the failed member's address
	// space: member LBNs in [0, watermark) are valid on the spare.
	watermark int64
	// lost marks a second concurrent failure: data is gone and the
	// volume refuses service.
	lost bool
	// epoch increments on every redundancy-state transition (failure,
	// completed rebuild) so stale plans can be detected and re-planned.
	epoch int
}

// NewVolume validates cfg and builds a healthy volume.
func NewVolume(cfg VolumeConfig) (*Volume, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := &Volume{cfg: cfg}
	v.Reset()
	return v, nil
}

// Reset restores the pristine state: identity slot mapping, full spare
// pool, no failure.
func (v *Volume) Reset() {
	v.slots = v.slots[:0]
	for s := 0; s < v.cfg.Members; s++ {
		v.slots = append(v.slots, s)
	}
	v.spares = v.spares[:0]
	for d := v.cfg.Members; d < v.cfg.Devices(); d++ {
		v.spares = append(v.spares, d)
	}
	v.failed = -1
	v.spareDev = -1
	v.watermark = 0
	v.lost = false
	v.epoch = 0
}

// Config returns the volume's configuration.
func (v *Volume) Config() VolumeConfig { return v.cfg }

// Capacity returns the volume's addressable sectors.
func (v *Volume) Capacity() int64 { return v.cfg.Capacity() }

// DeviceOf resolves a member slot to its current physical device.
// During a rebuild the failed slot resolves to the spare being built,
// which is where rebuild writes and rebuilt-region reads belong; the
// planners only target the failed slot in those cases.
func (v *Volume) DeviceOf(slot int) int {
	if slot == v.failed && v.spareDev >= 0 {
		return v.spareDev
	}
	return v.slots[slot]
}

// Failed returns the failed member slot, or -1.
func (v *Volume) Failed() int { return v.failed }

// Degraded reports whether a member is currently failed.
func (v *Volume) Degraded() bool { return v.failed >= 0 }

// Lost reports whether redundancy was exhausted (two concurrent
// failures, or any failure on an unprotected stripe volume).
func (v *Volume) Lost() bool { return v.lost }

// Rebuilding reports whether an online rebuild is in progress.
func (v *Volume) Rebuilding() bool { return v.spareDev >= 0 }

// Watermark returns the rebuilt member-LBN prefix.
func (v *Volume) Watermark() int64 { return v.watermark }

// Epoch returns the redundancy-state generation, incremented by Fail
// and FinishRebuild; plans created under an older epoch must be
// re-resolved with ReplaceDeadOp before issue.
func (v *Volume) Epoch() int { return v.epoch }

// SlotDevice returns the device index recorded for a slot ignoring any
// in-progress rebuild — the queue to drain when the slot's device dies.
func (v *Volume) SlotDevice(slot int) int { return v.slots[slot] }

// Fail marks member slot failed. A failure while another member is
// failed (or rebuilding), or any failure of an unprotected stripe
// volume, loses data. Failing the already-failed slot is a no-op.
func (v *Volume) Fail(slot int) error {
	if slot < 0 || slot >= v.cfg.Members {
		return fmt.Errorf("array: failed slot %d out of range [0,%d)", slot, v.cfg.Members)
	}
	if slot == v.failed {
		return nil
	}
	v.epoch++
	if v.failed >= 0 || v.cfg.Level == VolStripe {
		v.lost = true
	}
	if v.failed < 0 {
		v.failed = slot
	}
	return nil
}

// BeginRebuild assigns a hot spare to the failed slot and reports
// whether a rebuild can start (a member is failed, data is intact, no
// rebuild is running, and a spare remains).
func (v *Volume) BeginRebuild() bool {
	if v.failed < 0 || v.lost || v.spareDev >= 0 || len(v.spares) == 0 {
		return false
	}
	v.spareDev = v.spares[0]
	v.spares = v.spares[1:]
	v.watermark = 0
	return true
}

// Advance extends the rebuilt prefix by blocks sectors.
func (v *Volume) Advance(blocks int) { v.watermark += int64(blocks) }

// RebuildDone reports whether the rebuilt prefix covers the member.
func (v *Volume) RebuildDone() bool {
	return v.spareDev >= 0 && v.watermark >= v.cfg.PerMember
}

// FinishRebuild completes the failover: the spare permanently backs
// the failed slot and the volume returns to full redundancy.
func (v *Volume) FinishRebuild() {
	if v.spareDev < 0 {
		return
	}
	v.slots[v.failed] = v.spareDev
	v.spareDev = -1
	v.failed = -1
	v.watermark = 0
	v.epoch++
}

// covered reports whether a failed-member range is fully within the
// rebuilt spare prefix.
func (v *Volume) covered(lbn int64, blocks int) bool {
	return v.spareDev >= 0 && lbn+int64(blocks) <= v.watermark
}

// liveSlots returns the non-failed member slots in ascending order.
func (v *Volume) liveSlots() []int {
	out := make([]int, 0, v.cfg.Members)
	for s := 0; s < v.cfg.Members; s++ {
		if s != v.failed {
			out = append(out, s)
		}
	}
	return out
}

// vchunk is one member's strip-bounded share of a volume extent.
type vchunk struct {
	slot   int
	lbn    int64 // member-local address
	blocks int
	parity int // parity slot of the chunk's row (VolParity), else -1
}

// mapBlock locates one volume block for the striped levels:
// left-symmetric rotation for VolParity, plain round-robin for
// VolStripe.
func (v *Volume) mapBlock(lbn int64) (slot int, mlbn int64, parity int) {
	u := v.cfg.StripeUnit
	n := int64(v.cfg.Members)
	strip := lbn / u
	off := lbn % u
	if v.cfg.Level == VolStripe {
		row := strip / n
		return int(strip % n), row*u + off, -1
	}
	dataPerRow := n - 1
	row := strip / dataPerRow
	idx := strip % dataPerRow
	p := int((n - 1 - row%n + n) % n)
	d := (p + 1 + int(idx)) % int(n)
	return d, row*u + off, p
}

// split decomposes a volume extent into strip-bounded member chunks
// (VolStripe and VolParity; VolMirror addresses members directly).
func (v *Volume) split(lbn int64, blocks int) []vchunk {
	u := v.cfg.StripeUnit
	var out []vchunk
	for i := 0; i < blocks; {
		l := lbn + int64(i)
		slot, mlbn, parity := v.mapBlock(l)
		run := int(u - l%u)
		if left := blocks - i; run > left {
			run = left
		}
		out = append(out, vchunk{slot: slot, lbn: mlbn, blocks: run, parity: parity})
		i += run
	}
	return out
}

// readSlot picks the replica serving a mirror read: stripe-unit-sized
// runs rotate across the live replicas, deterministically.
func (v *Volume) readSlot(lbn int64) int {
	strip := lbn / v.cfg.StripeUnit
	if v.failed < 0 {
		return int(strip % int64(v.cfg.Members))
	}
	live := v.liveSlots()
	return live[int(strip%int64(len(live)))]
}

// checkRange panics on an out-of-capacity request — a volume-level
// addressing bug in the caller, not a runtime condition.
func (v *Volume) checkRange(lbn int64, blocks int) {
	if blocks <= 0 || lbn < 0 || lbn+int64(blocks) > v.Capacity() {
		panic(fmt.Sprintf("array: volume request [%d,%d) outside capacity %d",
			lbn, lbn+int64(blocks), v.Capacity()))
	}
}

// PlanRead realizes a volume read under the current redundancy state.
// ok is false when the addressed data is lost (stripe-member failure or
// double fault): the request must complete in error, never be silently
// served.
func (v *Volume) PlanRead(lbn int64, blocks int) (Plan, bool) {
	v.checkRange(lbn, blocks)
	if v.lost {
		return Plan{}, false
	}
	var pl Plan
	if v.cfg.Level == VolMirror {
		pl.Phases = [][]MemberOp{{{Slot: v.readSlot(lbn), Op: core.Read, LBN: lbn, Blocks: blocks}}}
		return pl, true
	}
	var ops []MemberOp
	for _, c := range v.split(lbn, blocks) {
		if c.slot != v.failed {
			ops = append(ops, MemberOp{Slot: c.slot, Op: core.Read, LBN: c.lbn, Blocks: c.blocks})
			continue
		}
		switch {
		case v.cfg.Level == VolStripe:
			return Plan{}, false // no redundancy: the chunk is gone
		case v.covered(c.lbn, c.blocks):
			// The rebuilt spare prefix already holds the data.
			ops = append(ops, MemberOp{Slot: c.slot, Op: core.Read, LBN: c.lbn, Blocks: c.blocks})
			pl.SpareRead = true
		default:
			// Parity reconstruction: read the same member range on every
			// surviving peer (k peer reads charged on the event loop).
			for _, s := range v.liveSlots() {
				ops = append(ops, MemberOp{Slot: s, Op: core.Read, LBN: c.lbn, Blocks: c.blocks})
			}
			pl.Reconstructed = true
		}
	}
	pl.Phases = [][]MemberOp{ops}
	return pl, true
}

// PlanWrite realizes a volume write: replicated single-phase writes for
// VolMirror, per-chunk read-modify-write fork-join phases for
// VolParity. ok is false when data is lost.
func (v *Volume) PlanWrite(lbn int64, blocks int) (Plan, bool) {
	v.checkRange(lbn, blocks)
	if v.lost {
		return Plan{}, false
	}
	var pl Plan
	pl.DegradedWrite = v.failed >= 0
	switch v.cfg.Level {
	case VolMirror:
		var ops []MemberOp
		for _, s := range v.liveSlots() {
			ops = append(ops, MemberOp{Slot: s, Op: core.Write, LBN: lbn, Blocks: blocks})
		}
		if v.failed >= 0 && v.covered(lbn, blocks) {
			// Keep the rebuilt spare prefix current.
			ops = append(ops, MemberOp{Slot: v.failed, Op: core.Write, LBN: lbn, Blocks: blocks})
		}
		pl.Phases = [][]MemberOp{ops}
		return pl, true
	case VolStripe:
		var ops []MemberOp
		for _, c := range v.split(lbn, blocks) {
			if c.slot == v.failed {
				return Plan{}, false
			}
			ops = append(ops, MemberOp{Slot: c.slot, Op: core.Write, LBN: c.lbn, Blocks: c.blocks})
		}
		pl.Phases = [][]MemberOp{ops}
		return pl, true
	}
	// VolParity: read-modify-write per chunk, chunks serialized (write
	// ordering), exactly the §6.2 sequence for the single-chunk small
	// write.
	for _, c := range v.split(lbn, blocks) {
		read := func(s int) MemberOp { return MemberOp{Slot: s, Op: core.Read, LBN: c.lbn, Blocks: c.blocks} }
		write := func(s int) MemberOp { return MemberOp{Slot: s, Op: core.Write, LBN: c.lbn, Blocks: c.blocks} }
		switch {
		case v.failed < 0 || (c.slot != v.failed && c.parity != v.failed),
			c.slot == v.failed && v.covered(c.lbn, c.blocks):
			// Healthy RMW — also valid with the failed slot's range
			// already rebuilt on the spare (DeviceOf resolves it there).
			pl.Phases = append(pl.Phases,
				[]MemberOp{read(c.slot), read(c.parity)},
				[]MemberOp{write(c.slot), write(c.parity)})
		case c.slot == v.failed:
			// Data member dead: fold the update into parity by reading
			// the row's surviving data members, then rewriting parity.
			var reads []MemberOp
			for _, s := range v.liveSlots() {
				if s != c.parity {
					reads = append(reads, read(s))
				}
			}
			pl.Phases = append(pl.Phases, reads, []MemberOp{write(c.parity)})
			pl.Reconstructed = true
		default: // c.parity == v.failed
			// Parity member dead: the data write proceeds unprotected.
			pl.Phases = append(pl.Phases, []MemberOp{write(c.slot)})
		}
	}
	return pl, true
}

// PlanRebuildChunk realizes the next background rebuild unit: read the
// surviving peers' next chunk (or one replica for VolMirror), then
// write the reconstructed chunk to the spare. It returns the chunk's
// block count (0 when no rebuild is active or the scan is complete).
func (v *Volume) PlanRebuildChunk(chunk int) (Plan, int) {
	if v.spareDev < 0 || v.watermark >= v.cfg.PerMember || chunk <= 0 {
		return Plan{}, 0
	}
	n := chunk
	if left := v.cfg.PerMember - v.watermark; int64(n) > left {
		n = int(left)
	}
	start := v.watermark
	var reads []MemberOp
	if v.cfg.Level == VolMirror {
		reads = []MemberOp{{Slot: v.liveSlots()[0], Op: core.Read, LBN: start, Blocks: n}}
	} else {
		for _, s := range v.liveSlots() {
			reads = append(reads, MemberOp{Slot: s, Op: core.Read, LBN: start, Blocks: n})
		}
	}
	return Plan{Phases: [][]MemberOp{
		reads,
		{{Slot: v.failed, Op: core.Write, LBN: start, Blocks: n}},
	}}, n
}

// ReplaceDeadOp re-resolves one member operation from a plan made
// before the redundancy state changed. Reads of the failed slot fall
// back to the rebuilt spare prefix or peer reconstruction; writes to
// the failed slot are dropped (their redundancy partners in the same
// plan carry the update). ok is false when the data is unreachable —
// the parent request must fail. recon marks peer reconstruction, for
// degraded-read accounting.
func (v *Volume) ReplaceDeadOp(op MemberOp) (repl []MemberOp, recon, ok bool) {
	if v.lost {
		if op.Op == core.Read {
			return nil, false, false
		}
		return nil, false, true
	}
	if op.Slot != v.failed {
		return []MemberOp{op}, false, true
	}
	if op.Op == core.Write {
		return nil, false, true
	}
	switch {
	case v.covered(op.LBN, op.Blocks):
		return []MemberOp{op}, false, true
	case v.cfg.Level == VolMirror:
		return []MemberOp{{Slot: v.liveSlots()[0], Op: core.Read, LBN: op.LBN, Blocks: op.Blocks}}, false, true
	case v.cfg.Level == VolParity:
		for _, s := range v.liveSlots() {
			repl = append(repl, MemberOp{Slot: s, Op: core.Read, LBN: op.LBN, Blocks: op.Blocks})
		}
		return repl, true, true
	default: // VolStripe: unreachable (stripe failure is lost), kept total
		return nil, false, false
	}
}
