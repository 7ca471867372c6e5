package array

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
)

// fakeDev has fixed per-op costs and records accesses.
type fakeDev struct {
	readMs, writeMs float64
	log             []core.Request
}

func (f *fakeDev) Name() string    { return "fake" }
func (f *fakeDev) Capacity() int64 { return 1 << 20 }
func (f *fakeDev) SectorSize() int { return 512 }
func (f *fakeDev) Reset()          {}
func (f *fakeDev) Access(r *core.Request, _ float64) float64 {
	f.log = append(f.log, *r)
	if r.Op == core.Write {
		return f.writeMs
	}
	return f.readMs
}
func (f *fakeDev) EstimateAccess(r *core.Request, _ float64) float64 {
	if r.Op == core.Write {
		return f.writeMs
	}
	return f.readMs
}

func fakes(n int) ([]core.Device, []*fakeDev) {
	devs := make([]core.Device, n)
	raw := make([]*fakeDev, n)
	for i := range devs {
		f := &fakeDev{readMs: 1, writeMs: 2}
		devs[i] = f
		raw[i] = f
	}
	return devs, raw
}

func TestNewValidation(t *testing.T) {
	devs, _ := fakes(3)
	cases := []struct {
		cfg  Config
		mem  []core.Device
		want bool
	}{
		{Config{Level: VolStripe, StripeUnit: 8}, devs, true},
		{Config{Level: VolParity, StripeUnit: 8}, devs, true},
		{Config{Level: VolMirror, StripeUnit: 8}, devs[:2], true},
		{Config{Level: VolStripe, StripeUnit: 8}, nil, false},
		{Config{Level: VolStripe, StripeUnit: 0}, devs, false},
		{Config{Level: VolStripe, StripeUnit: 1 << 21}, devs, false}, // no whole strip fits
		{Config{Level: VolumeLevel(9), StripeUnit: 8}, devs, false},
		{Config{Level: VolParity, StripeUnit: 8}, devs[:2], false},
		{Config{Level: VolMirror, StripeUnit: 8}, devs[:1], false},
		{Config{Level: VolMirror}, devs[:2], false},
	}
	for i, c := range cases {
		_, err := New(c.cfg, c.mem)
		if (err == nil) != c.want {
			t.Errorf("case %d: err=%v want ok=%v", i, err, c.want)
		}
	}
	// Mismatched geometry.
	d := disk.MustDevice(disk.Atlas10K())
	m := mems.MustDevice(mems.DefaultConfig())
	if _, err := New(Config{Level: VolStripe, StripeUnit: 8}, []core.Device{d, m}); err == nil {
		t.Error("expected geometry mismatch error")
	}
}

func TestCapacities(t *testing.T) {
	devs, _ := fakes(4)
	per := devs[0].Capacity()
	for _, c := range []struct {
		level VolumeLevel
		want  int64
	}{
		{VolStripe, 4 * per},
		{VolMirror, per},
		{VolParity, 3 * per},
	} {
		a, err := New(Config{Level: c.level, StripeUnit: 8}, devs)
		if err != nil {
			t.Fatal(err)
		}
		if a.Capacity() != c.want {
			t.Errorf("%s capacity = %d, want %d", c.level, a.Capacity(), c.want)
		}
		if a.SectorSize() != 512 || a.Members() != 4 {
			t.Error("accessors wrong")
		}
	}
}

func TestLevelString(t *testing.T) {
	devs, _ := fakes(3)
	for level, want := range map[VolumeLevel]string{
		VolStripe: "RAID-0×3(fake)", VolMirror: "RAID-1×3(fake)", VolParity: "RAID-5×3(fake)",
	} {
		a, err := New(Config{Level: level, StripeUnit: 8}, devs)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != want {
			t.Errorf("%v array name = %q, want %q", level, a.Name(), want)
		}
	}
}

func TestRAID0SplitCoversEverything(t *testing.T) {
	// Every sector of a striped read is served by exactly one member
	// access, within the member's capacity.
	devs, raw := fakes(4)
	a, _ := New(Config{Level: VolStripe, StripeUnit: 8}, devs)
	f := func(rawLBN uint32, rawN uint8) bool {
		lbn := int64(rawLBN) % (a.Capacity() - 300)
		n := int(rawN)%256 + 1
		for _, d := range raw {
			d.log = d.log[:0]
		}
		a.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: n}, 0)
		total := 0
		for _, d := range raw {
			for _, r := range d.log {
				if r.Blocks <= 0 || r.LBN < 0 || r.LBN+int64(r.Blocks) > devs[0].Capacity() {
					return false
				}
				total += r.Blocks
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	devs, raw := fakes(4)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	seen := map[int]bool{}
	for row := 0; row < 4; row++ {
		// A small write to the first strip of a row (row * (n-1) strips
		// in) touches exactly its data member and its row's parity
		// member. Left-symmetric: row r's parity is on member 3-r, and
		// its first data strip on the member after it.
		lbn := int64(row) * 3 * 8
		for _, d := range raw {
			d.log = d.log[:0]
		}
		a.Access(&core.Request{Op: core.Write, LBN: lbn, Blocks: 8}, 0)
		parity := 3 - row
		for i, d := range raw {
			if touched, want := len(d.log) > 0, i == parity || i == (parity+1)%4; touched != want {
				t.Errorf("row %d: member %d touched=%v, want %v", row, i, touched, want)
			}
		}
		seen[parity] = true
	}
	if len(seen) != 4 {
		t.Errorf("parity used %d members over 4 rows, want all 4", len(seen))
	}
}

func TestRAID0ReadParallelism(t *testing.T) {
	devs, raw := fakes(4)
	a, _ := New(Config{Level: VolStripe, StripeUnit: 8}, devs)
	// 32 sectors spanning all four members: time = max = one member's 1 ms.
	svc := a.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 32}, 0)
	if svc != 1 {
		t.Errorf("striped read = %g ms, want 1 (parallel)", svc)
	}
	touched := 0
	for _, f := range raw {
		if len(f.log) > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Errorf("touched %d members, want 4", touched)
	}
}

func TestRAID1ReadOneWriteAll(t *testing.T) {
	devs, raw := fakes(2)
	a, _ := New(Config{Level: VolMirror, StripeUnit: 8}, devs)
	a.Access(&core.Request{Op: core.Read, LBN: 5, Blocks: 2}, 0)
	if len(raw[0].log) != 1 || len(raw[1].log) != 0 {
		t.Errorf("read fanout: %d/%d, want 1/0", len(raw[0].log), len(raw[1].log))
	}
	// The next stripe unit's reads rotate to the other replica.
	a.Access(&core.Request{Op: core.Read, LBN: 13, Blocks: 2}, 0)
	if len(raw[0].log) != 1 || len(raw[1].log) != 1 {
		t.Errorf("rotated read fanout: %d/%d, want 1/1", len(raw[0].log), len(raw[1].log))
	}
	svc := a.Access(&core.Request{Op: core.Write, LBN: 5, Blocks: 2}, 0)
	if len(raw[0].log) != 2 || len(raw[1].log) != 2 {
		t.Errorf("write fanout: %d/%d, want 2/2", len(raw[0].log), len(raw[1].log))
	}
	if svc != 2 {
		t.Errorf("mirrored write = %g ms, want 2 (parallel)", svc)
	}
}

func TestRAID1DegradedReadUsesSurvivor(t *testing.T) {
	devs, raw := fakes(2)
	a, _ := New(Config{Level: VolMirror, StripeUnit: 8}, devs)
	a.FailMember(0)
	if !a.Degraded() {
		t.Fatal("not degraded")
	}
	a.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 1}, 0)
	if len(raw[1].log) != 1 || len(raw[0].log) != 0 {
		t.Error("degraded read hit the failed mirror")
	}
	a.Repair()
	if a.Degraded() {
		t.Error("Repair did not clear")
	}
}

func TestRAID5SmallWriteIsTwoPhases(t *testing.T) {
	devs, raw := fakes(4)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	// One-strip write: read old data + old parity (1 ms, parallel), then
	// write both (2 ms, parallel): 3 ms total.
	svc := a.Access(&core.Request{Op: core.Write, LBN: 0, Blocks: 8}, 0)
	if svc != 3 {
		t.Errorf("RAID-5 small write = %g ms, want 3 (1 read + 2 write)", svc)
	}
	// Exactly two members involved: the data member and the parity
	// member, each seeing one read then one write.
	involved := 0
	for _, f := range raw {
		switch len(f.log) {
		case 0:
		case 2:
			involved++
			if f.log[0].Op != core.Read || f.log[1].Op != core.Write {
				t.Errorf("member ops = %v", f.log)
			}
		default:
			t.Errorf("member saw %d ops", len(f.log))
		}
	}
	if involved != 2 {
		t.Errorf("involved members = %d, want 2", involved)
	}
}

func TestRAID5DegradedWriteFoldsIntoParity(t *testing.T) {
	// Row 0 of a four-member array: data on members 0-2, parity on 3.
	logs := func(raw []*fakeDev) [][]core.Request {
		out := make([][]core.Request, len(raw))
		for i, d := range raw {
			out[i] = d.log
		}
		return out
	}
	rd := core.Request{Op: core.Read, LBN: 0, Blocks: 8}
	wr := core.Request{Op: core.Write, LBN: 0, Blocks: 8}

	// Dead data member: read the row's surviving data members, then
	// write the new parity.
	devs, raw := fakes(4)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	a.FailMember(0)
	if svc := a.Access(&wr, 0); svc != 3 {
		t.Errorf("dead-data write = %g ms, want 3 (1 read + 2 write)", svc)
	}
	want := [][]core.Request{nil, {rd}, {rd}, {wr}}
	if got := logs(raw); !reflect.DeepEqual(got, want) {
		t.Errorf("dead-data write member ops = %v, want %v", got, want)
	}

	// Dead parity member: only the data member is written.
	devs, raw = fakes(4)
	a, _ = New(Config{Level: VolParity, StripeUnit: 8}, devs)
	a.FailMember(3)
	if svc := a.Access(&wr, 0); svc != 2 {
		t.Errorf("dead-parity write = %g ms, want 2 (one write)", svc)
	}
	want = [][]core.Request{{wr}, nil, nil, nil}
	if got := logs(raw); !reflect.DeepEqual(got, want) {
		t.Errorf("dead-parity write member ops = %v, want %v", got, want)
	}
}

func TestCapacityTopSectors(t *testing.T) {
	// Each Atlas 10K member holds 16,962,852 sectors; only whole 8-sector
	// strips count, so three data members give 3 × 16,962,848 sectors,
	// and the last of them maps inside every member.
	members := make([]core.Device, 4)
	for i := range members {
		members[i] = disk.MustDevice(disk.Atlas10K())
	}
	a, err := New(Config{Level: VolParity, StripeUnit: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	if a.Capacity() != 50888544 {
		t.Errorf("capacity = %d, want 50888544", a.Capacity())
	}
	for _, op := range []core.Op{core.Read, core.Write} {
		if svc := a.Access(&core.Request{Op: op, LBN: a.Capacity() - 8, Blocks: 8}, 0); svc <= 0 {
			t.Errorf("op %v on the last strip = %g ms", op, svc)
		}
	}
}

func TestRAID5DegradedReadReconstructs(t *testing.T) {
	devs, raw := fakes(4)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	dev, _, _ := a.vol.mapBlock(0)
	a.FailMember(dev)
	a.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 8}, 0)
	// Reconstruction reads the three survivors.
	reads := 0
	for i, f := range raw {
		if i == dev {
			if len(f.log) != 0 {
				t.Error("read hit the failed member")
			}
			continue
		}
		reads += len(f.log)
	}
	if reads != 3 {
		t.Errorf("reconstruction reads = %d, want 3", reads)
	}
}

func TestRAID0FailedMemberPanics(t *testing.T) {
	devs, _ := fakes(3)
	a, _ := New(Config{Level: VolStripe, StripeUnit: 8}, devs)
	a.FailMember(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic: RAID-0 has no redundancy")
		}
	}()
	a.Access(&core.Request{Op: core.Read, LBN: 0, Blocks: 8}, 0)
}

func TestFailMemberPanics(t *testing.T) {
	devs, _ := fakes(3)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	for _, f := range []func(){
		func() { a.FailMember(-1) },
		func() { a.FailMember(3) },
		func() { a.FailMember(0); a.FailMember(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
		a.Repair()
	}
}

func TestAccessPanicsOutOfRange(t *testing.T) {
	devs, _ := fakes(3)
	a, _ := New(Config{Level: VolStripe, StripeUnit: 8}, devs)
	for _, r := range []*core.Request{
		{Op: core.Read, LBN: -1, Blocks: 1},
		{Op: core.Read, LBN: 0, Blocks: 0},
		{Op: core.Read, LBN: a.Capacity(), Blocks: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %+v", r)
				}
			}()
			a.Access(r, 0)
		}()
	}
}

// smallMEMS builds a reduced-capacity MEMS device so rebuild scans stay
// fast in tests.
func smallMEMS(t testing.TB) core.Device {
	t.Helper()
	cfg := mems.DefaultConfig()
	cfg.BitsX = 250 // 1/10th the cylinders
	d, err := mems.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRAID5SmallWriteMEMSvsDisk(t *testing.T) {
	// §6.2's quantitative claim, at array level: the RAID-5 small-write
	// penalty (read-modify-write) costs the disk array nearly a full
	// rotation; the MEMS array pays only a turnaround. Compare the
	// *re-access* portion by issuing a write to data just read.
	mk := func(dev func() core.Device) float64 {
		members := make([]core.Device, 4)
		for i := range members {
			members[i] = dev()
		}
		a, err := New(Config{Level: VolParity, StripeUnit: 8}, members)
		if err != nil {
			t.Fatal(err)
		}
		// Average over several strips.
		rng := rand.New(rand.NewSource(4))
		sum := 0.0
		const n = 50
		for i := 0; i < n; i++ {
			lbn := rng.Int63n(a.Capacity()-8) / 8 * 8
			sum += a.Access(&core.Request{Op: core.Write, LBN: lbn, Blocks: 8}, 0)
		}
		return sum / n
	}
	memsT := mk(func() core.Device { return mems.MustDevice(mems.DefaultConfig()) })
	diskT := mk(func() core.Device { return disk.MustDevice(disk.Atlas10K()) })
	if memsT*4 > diskT {
		t.Errorf("RAID-5 small write: MEMS %g ms vs disk %g ms — want ≥4× gap", memsT, diskT)
	}
	t.Logf("RAID-5 4KB write: MEMS array %.3f ms, disk array %.3f ms", memsT, diskT)
}

func TestRebuildTime(t *testing.T) {
	members := make([]core.Device, 3)
	for i := range members {
		members[i] = smallMEMS(t)
	}
	a, err := New(Config{Level: VolParity, StripeUnit: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	a.FailMember(1)
	rt := a.RebuildTime(2700)
	if rt <= 0 {
		t.Fatalf("rebuild time = %g", rt)
	}
	// Sanity: rebuilding ≈ one full streaming scan; the small device is
	// 345.6 MB, so at ~79 MB/s the scan is ≈ 4.4 s.
	if rt < 3000 || rt > 12000 {
		t.Errorf("rebuild time = %.0f ms, want ≈ 4400–9000", rt)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-positive chunk")
			}
		}()
		a.RebuildTime(0)
	}()
}

func TestEstimateAccessLowerBound(t *testing.T) {
	devs, _ := fakes(4)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	if est := a.EstimateAccess(&core.Request{Op: core.Read, LBN: 0, Blocks: 8}, 0); est != 1 {
		t.Errorf("estimate = %g", est)
	}
	m, _ := New(Config{Level: VolMirror, StripeUnit: 8}, devs[:2])
	if est := m.EstimateAccess(&core.Request{Op: core.Read, LBN: 0, Blocks: 8}, 0); est != 1 {
		t.Errorf("mirror estimate = %g", est)
	}
}

func TestArrayName(t *testing.T) {
	devs, _ := fakes(3)
	a, _ := New(Config{Level: VolParity, StripeUnit: 8}, devs)
	if a.Name() != "RAID-5×3(fake)" {
		t.Errorf("name = %q", a.Name())
	}
}
