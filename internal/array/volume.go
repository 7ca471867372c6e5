// volume.go implements multi-device volumes: striped, mirrored and
// rotated-parity geometries, plus the failure / hot-spare /
// online-rebuild state machine. A Volume owns no clock and no devices; it only answers
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
//
// A Plan is a reusable buffer: the planners refill it in place, so a
// caller that keeps one per in-flight request plans without
// allocating once the buffers have grown.
type Plan struct {
	// ops holds every phase's operations back to back; ends[i] is the
	// offset in ops where phase i ends.
	ops  []MemberOp
	ends []int
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

// NumPhases returns the number of fork-join phases.
func (pl *Plan) NumPhases() int { return len(pl.ends) }

// Phase returns phase i's operations. The slice aliases the plan's
// buffer and is valid until the plan is refilled.
func (pl *Plan) Phase(i int) []MemberOp {
	start := 0
	if i > 0 {
		start = pl.ends[i-1]
	}
	return pl.ops[start:pl.ends[i]]
}

// reset empties the plan, keeping its buffers.
func (pl *Plan) reset() {
	pl.ops, pl.ends = pl.ops[:0], pl.ends[:0]
	pl.Reconstructed, pl.SpareRead, pl.DegradedWrite = false, false, false
}

// add appends one operation to the open phase.
func (pl *Plan) add(slot int, op core.Op, lbn int64, blocks int) {
	pl.ops = append(pl.ops, MemberOp{Slot: slot, Op: op, LBN: lbn, Blocks: blocks})
}

// endPhase closes the open phase.
func (pl *Plan) endPhase() { pl.ends = append(pl.ends, len(pl.ops)) }

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

	// Planner scratch, reused across calls: the non-failed slots in
	// ascending order (kept current by setFailed), a request's strip
	// chunks, and the tail of a plan being re-resolved.
	live   []int
	chunks []vchunk
	tail   []MemberOp
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
	v.setFailed(-1)
	v.spareDev = -1
	v.watermark = 0
	v.lost = false
	v.epoch = 0
}

// setFailed records the failed slot (-1 for none) and refreshes the
// live-slot list.
func (v *Volume) setFailed(slot int) {
	v.failed = slot
	v.live = v.live[:0]
	for s := 0; s < v.cfg.Members; s++ {
		if s != slot {
			v.live = append(v.live, s)
		}
	}
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
		v.setFailed(slot)
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
	v.setFailed(-1)
	v.watermark = 0
	v.epoch++
}

// covered reports whether a failed-member range is fully within the
// rebuilt spare prefix.
func (v *Volume) covered(lbn int64, blocks int) bool {
	return v.spareDev >= 0 && lbn+int64(blocks) <= v.watermark
}

// rebuilt returns how many leading sectors of a failed-member range lie
// in the rebuilt spare prefix.
func (v *Volume) rebuilt(lbn int64, blocks int) int {
	if v.spareDev < 0 || lbn >= v.watermark {
		return 0
	}
	return int(min(int64(blocks), v.watermark-lbn))
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
// (VolStripe and VolParity; VolMirror addresses members directly). The
// result is the volume's scratch buffer, valid until the next call.
func (v *Volume) split(lbn int64, blocks int) []vchunk {
	u := v.cfg.StripeUnit
	out := v.chunks[:0]
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
	v.chunks = out
	return out
}

// readSlot picks the replica serving a mirror read: stripe-unit-sized
// runs rotate across the live replicas, deterministically.
func (v *Volume) readSlot(lbn int64) int {
	strip := lbn / v.cfg.StripeUnit
	if v.failed < 0 {
		return int(strip % int64(v.cfg.Members))
	}
	return v.live[int(strip%int64(len(v.live)))]
}

// checkRange panics on an out-of-capacity request — a volume-level
// addressing bug in the caller, not a runtime condition.
func (v *Volume) checkRange(lbn int64, blocks int) {
	if blocks <= 0 || lbn < 0 || lbn+int64(blocks) > v.Capacity() {
		panic(fmt.Sprintf("array: volume request [%d,%d) outside capacity %d",
			lbn, lbn+int64(blocks), v.Capacity()))
	}
}

// PlanRead refills pl with a volume read under the current redundancy
// state. It returns false, with pl empty, when the addressed data is
// lost (stripe-member failure or double fault): the request must
// complete in error, never be silently served.
func (v *Volume) PlanRead(pl *Plan, lbn int64, blocks int) bool {
	v.checkRange(lbn, blocks)
	pl.reset()
	if v.lost {
		return false
	}
	if v.cfg.Level == VolMirror {
		pl.add(v.readSlot(lbn), core.Read, lbn, blocks)
		pl.endPhase()
		return true
	}
	for _, c := range v.split(lbn, blocks) {
		if c.slot != v.failed {
			pl.add(c.slot, core.Read, c.lbn, c.blocks)
			continue
		}
		switch {
		case v.cfg.Level == VolStripe:
			pl.reset() // no redundancy: the chunk is gone
			return false
		case v.covered(c.lbn, c.blocks):
			// The rebuilt spare prefix already holds the data.
			pl.add(c.slot, core.Read, c.lbn, c.blocks)
			pl.SpareRead = true
		default:
			// Parity reconstruction: read the same member range on every
			// surviving peer (k peer reads charged on the event loop).
			for _, s := range v.live {
				pl.add(s, core.Read, c.lbn, c.blocks)
			}
			pl.Reconstructed = true
		}
	}
	pl.endPhase()
	return true
}

// PlanWrite refills pl with a volume write: replicated single-phase
// writes for VolMirror, per-chunk read-modify-write fork-join phases
// for VolParity. It returns false, with pl empty, when data is lost.
func (v *Volume) PlanWrite(pl *Plan, lbn int64, blocks int) bool {
	v.checkRange(lbn, blocks)
	pl.reset()
	if v.lost {
		return false
	}
	pl.DegradedWrite = v.failed >= 0
	switch v.cfg.Level {
	case VolMirror:
		for _, s := range v.live {
			pl.add(s, core.Write, lbn, blocks)
		}
		if n := v.rebuilt(lbn, blocks); n > 0 {
			// Keep the rebuilt spare prefix current.
			pl.add(v.failed, core.Write, lbn, n)
		}
		pl.endPhase()
		return true
	case VolStripe:
		for _, c := range v.split(lbn, blocks) {
			if c.slot == v.failed {
				pl.reset()
				return false
			}
			pl.add(c.slot, core.Write, c.lbn, c.blocks)
		}
		pl.endPhase()
		return true
	}
	// VolParity: read-modify-write per chunk, chunks serialized (write
	// ordering), exactly the §6.2 sequence for the single-chunk small
	// write.
	for _, c := range v.split(lbn, blocks) {
		switch {
		case v.failed < 0 || (c.slot != v.failed && c.parity != v.failed),
			c.slot == v.failed && v.covered(c.lbn, c.blocks):
			// Healthy RMW — also valid with the failed slot's range
			// already rebuilt on the spare (DeviceOf resolves it there).
			pl.add(c.slot, core.Read, c.lbn, c.blocks)
			pl.add(c.parity, core.Read, c.lbn, c.blocks)
			pl.endPhase()
			pl.add(c.slot, core.Write, c.lbn, c.blocks)
			pl.add(c.parity, core.Write, c.lbn, c.blocks)
			pl.endPhase()
		case c.slot == v.failed:
			// Data member dead: fold the update into parity by reading
			// the row's surviving data members, then rewriting parity.
			for _, s := range v.live {
				if s != c.parity {
					pl.add(s, core.Read, c.lbn, c.blocks)
				}
			}
			pl.endPhase()
			pl.add(c.parity, core.Write, c.lbn, c.blocks)
			if n := v.rebuilt(c.lbn, c.blocks); n > 0 {
				// The chunk straddles the watermark: keep the rebuilt
				// spare prefix current too.
				pl.add(c.slot, core.Write, c.lbn, n)
			}
			pl.endPhase()
			pl.Reconstructed = true
		default: // c.parity == v.failed
			// Parity member dead: the data write proceeds unprotected.
			pl.add(c.slot, core.Write, c.lbn, c.blocks)
			pl.endPhase()
		}
	}
	return true
}

// PlanRebuildChunk refills pl with the next background rebuild unit:
// read the surviving peers' next chunk (or one replica for VolMirror),
// then write the reconstructed chunk to the spare. It returns the
// chunk's block count, with pl empty when that is 0 (no rebuild is
// active or the scan is complete).
func (v *Volume) PlanRebuildChunk(pl *Plan, chunk int) int {
	pl.reset()
	if v.spareDev < 0 || v.watermark >= v.cfg.PerMember || chunk <= 0 {
		return 0
	}
	n := chunk
	if left := v.cfg.PerMember - v.watermark; int64(n) > left {
		n = int(left)
	}
	start := v.watermark
	if v.cfg.Level == VolMirror {
		pl.add(v.live[0], core.Read, start, n)
	} else {
		for _, s := range v.live {
			pl.add(s, core.Read, start, n)
		}
	}
	pl.endPhase()
	pl.add(v.failed, core.Write, start, n)
	pl.endPhase()
	return n
}

// Replan re-resolves phases from onward of a plan made before the
// redundancy state changed, replacing each operation by ReplaceDeadOp's
// answer in place. ok is false when some operation's data is
// unreachable — the parent request must fail; recon reports that some
// read fell back to peer reconstruction.
func (v *Volume) Replan(pl *Plan, from int) (recon, ok bool) {
	ok = true
	lo := 0
	if from > 0 {
		lo = pl.ends[from-1]
	}
	base := lo
	v.tail = append(v.tail[:0], pl.ops[lo:]...)
	pl.ops = pl.ops[:lo]
	for i := from; i < len(pl.ends); i++ {
		hi := pl.ends[i]
		for _, op := range v.tail[lo-base : hi-base] {
			var rc, rok bool
			pl.ops, rc, rok = v.ReplaceDeadOp(pl.ops, op)
			recon = recon || rc
			ok = ok && rok
		}
		pl.ends[i] = len(pl.ops)
		lo = hi
	}
	return recon, ok
}

// ReplaceDeadOp re-resolves one member operation from a plan made
// before the redundancy state changed, appending its replacements to
// dst. Reads of the failed slot fall back to the rebuilt spare prefix
// or peer reconstruction; writes to the failed slot are dropped (their
// redundancy partners in the same plan carry the update). ok is false
// when the data is unreachable — the parent request must fail. recon
// marks peer reconstruction, for degraded-read accounting.
func (v *Volume) ReplaceDeadOp(dst []MemberOp, op MemberOp) (out []MemberOp, recon, ok bool) {
	if v.lost {
		return dst, false, op.Op != core.Read
	}
	if op.Slot != v.failed {
		return append(dst, op), false, true
	}
	if op.Op == core.Write {
		return dst, false, true
	}
	switch {
	case v.covered(op.LBN, op.Blocks):
		return append(dst, op), false, true
	case v.cfg.Level == VolMirror:
		return append(dst, MemberOp{Slot: v.live[0], Op: core.Read, LBN: op.LBN, Blocks: op.Blocks}), false, true
	case v.cfg.Level == VolParity:
		for _, s := range v.live {
			dst = append(dst, MemberOp{Slot: s, Op: core.Read, LBN: op.LBN, Blocks: op.Blocks})
		}
		return dst, true, true
	default: // VolStripe: unreachable (stripe failure is lost), kept total
		return dst, false, false
	}
}
