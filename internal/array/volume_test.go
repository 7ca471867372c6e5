package array

import (
	"reflect"
	"testing"

	"memsim/internal/core"
)

func mustVolume(t *testing.T, cfg VolumeConfig) *Volume {
	t.Helper()
	v, err := NewVolume(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// planRead and planWrite plan into a fresh Plan, for tests that look
// at one plan at a time.
func planRead(v *Volume, lbn int64, blocks int) (*Plan, bool) {
	pl := new(Plan)
	return pl, v.PlanRead(pl, lbn, blocks)
}

func planWrite(v *Volume, lbn int64, blocks int) (*Plan, bool) {
	pl := new(Plan)
	return pl, v.PlanWrite(pl, lbn, blocks)
}

func parityCfg() VolumeConfig {
	return VolumeConfig{Level: VolParity, Members: 4, Spares: 1, StripeUnit: 8, PerMember: 64}
}

func mirrorCfg() VolumeConfig {
	return VolumeConfig{Level: VolMirror, Members: 2, Spares: 1, StripeUnit: 8, PerMember: 64}
}

func TestVolumeConfigValidate(t *testing.T) {
	bad := []VolumeConfig{
		{Level: VolStripe, Members: 0, StripeUnit: 8, PerMember: 64},
		{Level: VolStripe, Members: 2, Spares: -1, StripeUnit: 8, PerMember: 64},
		{Level: VolStripe, Members: 2, StripeUnit: 0, PerMember: 64},
		{Level: VolStripe, Members: 2, StripeUnit: 8, PerMember: 0},
		{Level: VolStripe, Members: 2, StripeUnit: 8, PerMember: 60}, // not a multiple
		{Level: VolMirror, Members: 1, StripeUnit: 8, PerMember: 64},
		{Level: VolParity, Members: 2, StripeUnit: 8, PerMember: 64},
		{Level: VolumeLevel(9), Members: 2, StripeUnit: 8, PerMember: 64},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v): expected an error", i, cfg)
		}
	}
	for _, cfg := range []VolumeConfig{parityCfg(), mirrorCfg(),
		{Level: VolStripe, Members: 3, StripeUnit: 8, PerMember: 64}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v: %v", cfg.Level, err)
		}
	}
}

func TestVolumeCapacity(t *testing.T) {
	cases := []struct {
		cfg  VolumeConfig
		want int64
	}{
		{VolumeConfig{Level: VolStripe, Members: 4, StripeUnit: 8, PerMember: 64}, 256},
		{VolumeConfig{Level: VolMirror, Members: 3, StripeUnit: 8, PerMember: 64}, 64},
		{VolumeConfig{Level: VolParity, Members: 4, StripeUnit: 8, PerMember: 64}, 192},
	}
	for _, tc := range cases {
		if got := tc.cfg.Capacity(); got != tc.want {
			t.Errorf("%v capacity = %d, want %d", tc.cfg.Level, got, tc.want)
		}
	}
	if d := parityCfg().Devices(); d != 5 {
		t.Errorf("devices = %d, want 5 (4 members + 1 spare)", d)
	}
}

func TestParityMappingBijective(t *testing.T) {
	// Every volume block maps to a unique (slot, member-LBN) pair, the
	// data slot never coincides with its row's parity slot, and parity
	// rotates over all members.
	v := mustVolume(t, parityCfg())
	seen := map[[2]int64]int64{}
	paritySlots := map[int]bool{}
	for lbn := int64(0); lbn < v.Capacity(); lbn++ {
		slot, mlbn, parity := v.mapBlock(lbn)
		if slot == parity {
			t.Fatalf("lbn %d: data slot %d equals parity slot", lbn, slot)
		}
		if slot < 0 || slot >= 4 || parity < 0 || parity >= 4 {
			t.Fatalf("lbn %d: slot %d parity %d out of range", lbn, slot, parity)
		}
		key := [2]int64{int64(slot), mlbn}
		if prev, dup := seen[key]; dup {
			t.Fatalf("lbn %d and %d both map to slot %d mlbn %d", prev, lbn, slot, mlbn)
		}
		seen[key] = lbn
		paritySlots[parity] = true
	}
	if len(paritySlots) != 4 {
		t.Errorf("parity rotated over %d slots, want 4 (left-symmetric)", len(paritySlots))
	}
}

func TestMirrorReadSpread(t *testing.T) {
	// Healthy mirror reads rotate across both replicas; after a failure
	// every read lands on the survivor.
	v := mustVolume(t, mirrorCfg())
	slots := map[int]bool{}
	for lbn := int64(0); lbn < 64; lbn += 8 {
		pl, ok := planRead(v, lbn, 1)
		if !ok || pl.NumPhases() != 1 || len(pl.Phase(0)) != 1 {
			t.Fatalf("healthy mirror read plan = %+v ok=%v", pl, ok)
		}
		slots[pl.Phase(0)[0].Slot] = true
	}
	if len(slots) != 2 {
		t.Errorf("healthy reads used %d replicas, want 2", len(slots))
	}
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}
	for lbn := int64(0); lbn < 64; lbn += 8 {
		pl, ok := planRead(v, lbn, 1)
		if !ok || pl.Phase(0)[0].Slot != 0 {
			t.Fatalf("degraded mirror read went to slot %d", pl.Phase(0)[0].Slot)
		}
		if pl.Reconstructed {
			t.Error("mirror survivor read marked reconstructed")
		}
	}
}

func TestMirrorWritePlans(t *testing.T) {
	v := mustVolume(t, mirrorCfg())
	pl, ok := planWrite(v, 3, 2)
	if !ok || pl.NumPhases() != 1 || len(pl.Phase(0)) != 2 {
		t.Fatalf("healthy mirror write plan = %+v ok=%v", pl, ok)
	}
	for _, op := range pl.Phase(0) {
		if op.Op != core.Write || op.LBN != 3 || op.Blocks != 2 {
			t.Errorf("bad replica op %+v", op)
		}
	}
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	pl, ok = planWrite(v, 3, 2)
	if !ok || len(pl.Phase(0)) != 1 || pl.Phase(0)[0].Slot != 1 || !pl.DegradedWrite {
		t.Fatalf("degraded mirror write plan = %+v ok=%v", pl, ok)
	}
	// Mid-rebuild, writes below the watermark also refresh the spare.
	if !v.BeginRebuild() {
		t.Fatal("no rebuild with a spare available")
	}
	v.Advance(16)
	pl, _ = planWrite(v, 3, 2)
	if len(pl.Phase(0)) != 2 {
		t.Errorf("covered write has %d ops, want 2 (survivor + spare)", len(pl.Phase(0)))
	}
	pl, _ = planWrite(v, 40, 2) // above the watermark
	if len(pl.Phase(0)) != 1 {
		t.Errorf("uncovered write has %d ops, want 1", len(pl.Phase(0)))
	}
}

func TestParityRMWAndDegradedPlans(t *testing.T) {
	v := mustVolume(t, parityCfg())
	slot, mlbn, parity := v.mapBlock(0)

	// Healthy small write: 2-phase read-modify-write on data + parity.
	pl, ok := planWrite(v, 0, 2)
	if !ok || pl.NumPhases() != 2 || len(pl.Phase(0)) != 2 || len(pl.Phase(1)) != 2 {
		t.Fatalf("healthy RMW plan = %+v", pl)
	}
	if pl.Phase(0)[0].Op != core.Read || pl.Phase(1)[0].Op != core.Write {
		t.Error("RMW phases out of order")
	}
	if pl.Phase(0)[0].Slot != slot || pl.Phase(0)[1].Slot != parity {
		t.Errorf("RMW targets slots %d,%d, want %d,%d",
			pl.Phase(0)[0].Slot, pl.Phase(0)[1].Slot, slot, parity)
	}

	// Healthy read: one op on the data slot.
	rp, ok := planRead(v, 0, 2)
	if !ok || len(rp.Phase(0)) != 1 || rp.Phase(0)[0].Slot != slot || rp.Phase(0)[0].LBN != mlbn {
		t.Fatalf("healthy read plan = %+v", rp)
	}

	// Fail the data slot: reads reconstruct from the 3 surviving peers.
	if err := v.Fail(slot); err != nil {
		t.Fatal(err)
	}
	rp, ok = planRead(v, 0, 2)
	if !ok || !rp.Reconstructed || len(rp.Phase(0)) != 3 {
		t.Fatalf("degraded read plan = %+v ok=%v", rp, ok)
	}
	for _, op := range rp.Phase(0) {
		if op.Slot == slot {
			t.Error("degraded read touched the failed slot")
		}
	}

	// Degraded write to the failed data slot: read the row's surviving
	// data members (members-2 of them), then rewrite parity.
	pl, ok = planWrite(v, 0, 2)
	if !ok || !pl.DegradedWrite || pl.NumPhases() != 2 {
		t.Fatalf("degraded write plan = %+v ok=%v", pl, ok)
	}
	if len(pl.Phase(0)) != 2 || len(pl.Phase(1)) != 1 || pl.Phase(1)[0].Slot != parity {
		t.Errorf("reconstruct-write shape = %d reads then %d writes to slot %d",
			len(pl.Phase(0)), len(pl.Phase(1)), pl.Phase(1)[0].Slot)
	}

	// Rebuild past the chunk: covered ranges use the spare like a
	// healthy member again.
	if !v.BeginRebuild() {
		t.Fatal("no rebuild")
	}
	v.Advance(16)
	rp, _ = planRead(v, 0, 2)
	if !rp.SpareRead || len(rp.Phase(0)) != 1 || rp.Phase(0)[0].Slot != slot {
		t.Errorf("covered read plan = %+v", rp)
	}
	if dev := v.DeviceOf(slot); dev != 4 {
		t.Errorf("covered slot resolves to device %d, want spare 4", dev)
	}
}

func TestParityWriteToFailedParitySlot(t *testing.T) {
	v := mustVolume(t, parityCfg())
	_, _, parity := v.mapBlock(0)
	if err := v.Fail(parity); err != nil {
		t.Fatal(err)
	}
	pl, ok := planWrite(v, 0, 2)
	if !ok || pl.NumPhases() != 1 || len(pl.Phase(0)) != 1 || pl.Phase(0)[0].Op != core.Write {
		t.Fatalf("parity-dead write plan = %+v", pl)
	}
	if !pl.DegradedWrite {
		t.Error("parity-dead write not marked degraded")
	}
}

func TestStripeFailureLosesData(t *testing.T) {
	v := mustVolume(t, VolumeConfig{Level: VolStripe, Members: 3, StripeUnit: 8, PerMember: 64})
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}
	if !v.Lost() {
		t.Fatal("stripe member failure must lose data")
	}
	if _, ok := planRead(v, 0, 4); ok {
		t.Error("lost volume served a read")
	}
	if _, ok := planWrite(v, 0, 4); ok {
		t.Error("lost volume accepted a write")
	}
}

func TestDoubleFailureLosesData(t *testing.T) {
	v := mustVolume(t, parityCfg())
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	if v.Lost() {
		t.Fatal("single parity failure should not lose data")
	}
	if err := v.Fail(2); err != nil {
		t.Fatal(err)
	}
	if !v.Lost() {
		t.Fatal("second concurrent failure must lose data")
	}
	if _, ok := planRead(v, 0, 1); ok {
		t.Error("lost volume served a read")
	}
}

func TestRebuildLifecycle(t *testing.T) {
	v := mustVolume(t, parityCfg())
	if v.BeginRebuild() {
		t.Fatal("rebuild started with no failure")
	}
	if err := v.Fail(2); err != nil {
		t.Fatal(err)
	}
	if !v.BeginRebuild() {
		t.Fatal("rebuild refused with a spare available")
	}
	if v.BeginRebuild() {
		t.Fatal("second concurrent rebuild")
	}
	total := 0
	for !v.RebuildDone() {
		pl := new(Plan)
		n := v.PlanRebuildChunk(pl, 24)
		if n == 0 {
			t.Fatal("rebuild stalled")
		}
		// Parity rebuild chunk: read the 3 surviving peers, write the spare.
		if pl.NumPhases() != 2 || len(pl.Phase(0)) != 3 || len(pl.Phase(1)) != 1 {
			t.Fatalf("chunk plan shape = %+v", pl)
		}
		w := pl.Phase(1)[0]
		if w.Slot != 2 || w.Op != core.Write || w.LBN != int64(total) {
			t.Fatalf("chunk write = %+v at watermark %d", w, total)
		}
		v.Advance(n)
		total += n
	}
	if total != 64 {
		t.Errorf("rebuilt %d sectors, want 64", total)
	}
	v.FinishRebuild()
	if v.Degraded() || v.Rebuilding() {
		t.Error("volume still degraded after failover")
	}
	if dev := v.DeviceOf(2); dev != 4 {
		t.Errorf("slot 2 resolves to device %d after failover, want spare 4", dev)
	}
	// A second failure after full failover is again a single failure.
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	if v.Lost() {
		t.Error("post-failover failure treated as a double fault")
	}
	if v.BeginRebuild() {
		t.Error("rebuild began with the spare pool exhausted")
	}
}

func TestReplaceDeadOp(t *testing.T) {
	v := mustVolume(t, parityCfg())
	if err := v.Fail(1); err != nil {
		t.Fatal(err)
	}

	// Live-slot ops pass through untouched.
	op := MemberOp{Slot: 0, Op: core.Read, LBN: 5, Blocks: 2}
	repl, recon, ok := v.ReplaceDeadOp(nil, op)
	if !ok || recon || len(repl) != 1 || repl[0] != op {
		t.Errorf("live op replaced: %+v", repl)
	}

	// Dead-slot writes are dropped; dead-slot reads become peer reads.
	repl, _, ok = v.ReplaceDeadOp(nil, MemberOp{Slot: 1, Op: core.Write, LBN: 5, Blocks: 2})
	if !ok || len(repl) != 0 {
		t.Errorf("dead write: repl=%v ok=%v", repl, ok)
	}
	repl, recon, ok = v.ReplaceDeadOp(nil, MemberOp{Slot: 1, Op: core.Read, LBN: 5, Blocks: 2})
	if !ok || !recon || len(repl) != 3 {
		t.Errorf("dead read: repl=%v recon=%v ok=%v", repl, recon, ok)
	}

	// Below the rebuild watermark the spare serves the original op.
	v.BeginRebuild()
	v.Advance(16)
	repl, recon, ok = v.ReplaceDeadOp(nil, MemberOp{Slot: 1, Op: core.Read, LBN: 5, Blocks: 2})
	if !ok || recon || len(repl) != 1 || repl[0].Slot != 1 {
		t.Errorf("covered dead read: repl=%v", repl)
	}

	// After loss, reads are unreachable and writes still drop silently.
	if err := v.Fail(3); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := v.ReplaceDeadOp(nil, MemberOp{Slot: 0, Op: core.Read, LBN: 5, Blocks: 2}); ok {
		t.Error("read replaced on a lost volume")
	}
	if _, _, ok := v.ReplaceDeadOp(nil, MemberOp{Slot: 0, Op: core.Write, LBN: 5, Blocks: 2}); !ok {
		t.Error("write not droppable on a lost volume")
	}
}

func TestVolumeEpochAndReset(t *testing.T) {
	v := mustVolume(t, parityCfg())
	e0 := v.Epoch()
	if err := v.Fail(0); err != nil {
		t.Fatal(err)
	}
	if v.Epoch() == e0 {
		t.Error("failure did not bump the epoch")
	}
	v.BeginRebuild()
	v.Advance(64)
	v.FinishRebuild()
	if v.Epoch() <= e0+1 {
		t.Error("failover did not bump the epoch")
	}
	v.Reset()
	if v.Epoch() != 0 || v.Degraded() || v.Lost() || v.Rebuilding() {
		t.Error("reset left failover state behind")
	}
	if dev := v.DeviceOf(0); dev != 0 {
		t.Errorf("reset slot mapping: %d", dev)
	}
}

// TestPlanRefill checks that refilling a used Plan gives exactly the
// plan a fresh one gets, in every redundancy state of a parity and a
// mirror volume, and that Replan rewrites only the phases it is given.
func TestPlanRefill(t *testing.T) {
	same := func(a, b *Plan) bool {
		if a.NumPhases() != b.NumPhases() || a.Reconstructed != b.Reconstructed ||
			a.SpareRead != b.SpareRead || a.DegradedWrite != b.DegradedWrite {
			return false
		}
		for i := 0; i < a.NumPhases(); i++ {
			if !reflect.DeepEqual(a.Phase(i), b.Phase(i)) {
				return false
			}
		}
		return true
	}
	for _, cfg := range []VolumeConfig{parityCfg(), mirrorCfg()} {
		v := mustVolume(t, cfg)
		var reused Plan
		check := func(state string) {
			for lbn := int64(0); lbn+20 <= v.Capacity(); lbn += 7 {
				for _, blocks := range []int{1, 5, 20} {
					fresh, ok := planWrite(v, lbn, blocks)
					if got := v.PlanWrite(&reused, lbn, blocks); got != ok || !same(&reused, fresh) {
						t.Fatalf("%v %s: write [%d,+%d) refilled %+v, fresh %+v", cfg.Level, state, lbn, blocks, reused, *fresh)
					}
					fresh, ok = planRead(v, lbn, blocks)
					if got := v.PlanRead(&reused, lbn, blocks); got != ok || !same(&reused, fresh) {
						t.Fatalf("%v %s: read [%d,+%d) refilled %+v, fresh %+v", cfg.Level, state, lbn, blocks, reused, *fresh)
					}
				}
			}
		}
		check("healthy")
		if err := v.Fail(1); err != nil {
			t.Fatal(err)
		}
		check("degraded")
		v.BeginRebuild()
		v.Advance(24)
		check("rebuilding")

		if cfg.Level != VolParity {
			continue
		}
		// A two-chunk write planned healthy, re-resolved from its third
		// phase after a failure: the first two phases stay as planned.
		v.Reset()
		pl, _ := planWrite(v, 6, 4)
		before := append([]MemberOp(nil), pl.Phase(0)...)
		if err := v.Fail(pl.Phase(2)[0].Slot); err != nil {
			t.Fatal(err)
		}
		if _, ok := v.Replan(pl, 2); !ok {
			t.Fatalf("%v: replan refused on a single failure", cfg.Level)
		}
		if !reflect.DeepEqual(pl.Phase(0), before) {
			t.Errorf("%v: replan touched phase 0: %+v, was %+v", cfg.Level, pl.Phase(0), before)
		}
		for i := 2; i < pl.NumPhases(); i++ {
			for _, op := range pl.Phase(i) {
				if op.Slot == v.Failed() {
					t.Errorf("%v: replanned phase %d still addresses failed slot: %+v", cfg.Level, i, op)
				}
			}
		}
	}
}
