package mems

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/physics"
)

var generations = []struct {
	name string
	cfg  Config
}{{"gen1", ConfigGen1()}, {"gen2", ConfigGen2()}, {"gen3", ConfigGen3()}}

func TestYTableMatchesSolverBitwise(t *testing.T) {
	for _, gen := range generations {
		g, err := NewGeometry(gen.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sled := g.Sled()
		tab := sharedYTable(g, sled)
		tb := float64(g.TipSectorBits)
		n := 0
		for b0 := 0; b0 <= g.RowsPerTrack; b0++ {
			for _, d0 := range []int{-1, 1} {
				for b1 := 0; b1 <= g.RowsPerTrack; b1++ {
					for _, d1 := range []int{-1, 1} {
						want := sled.SeekTime(g.YPos(float64(b0)*tb), float64(d0)*g.AccessSpeed,
							g.YPos(float64(b1)*tb), float64(d1)*g.AccessSpeed) * 1e3
						if got := tab.seek(yState(b0, d0), b1, d1); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s (%d,%+d)→(%d,%+d): table %v, solver %v", gen.name, b0, d0, b1, d1, got, want)
						}
						n++
					}
				}
			}
		}
		if n != len(tab.ms) {
			t.Errorf("%s: checked %d entries of %d", gen.name, n, len(tab.ms))
		}
	}
}

func TestYTableSizeBounded(t *testing.T) {
	for _, gen := range generations {
		g := MustDevice(gen.cfg).Geometry()
		tab := sharedYTable(g, g.Sled())
		if size := len(tab.ms) * 8; size > 64<<10 {
			t.Errorf("%s: Y seek table is %d B, want ≤ 64 KB", gen.name, size)
		}
	}
	g := MustDevice(DefaultConfig()).Geometry()
	if n := len(sharedYTable(g, g.Sled()).ms); n != 4*28*28 {
		t.Errorf("Table 1 device: %d entries, want 4·28² (28 row boundaries, ±v each end)", n)
	}
}

// TestYTableRowCap drives a geometry with more rows per track than the
// table covers: its states stay off the grid, no table is built, and
// every answer still matches the solver-only reference.
func TestYTableRowCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ServoBits, cfg.EncodedBits = 0, 8 // 312 rows per track
	d := MustDevice(cfg)
	g := d.Geometry()
	if g.RowsPerTrack <= maxYTableRows {
		t.Fatalf("%d rows per track, want more than %d", g.RowsPerTrack, maxYTableRows)
	}
	sled := g.Sled()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		req := randomRequest(rng, g)
		cyl, yB, vdir := d.State()
		want, _, _, _ := refAccess(g, sled, cyl, yB, vdir, req)
		if got := d.Access(req, 0); !sameBits(got, want.ServiceMs) {
			t.Fatalf("%+v: Access %v, reference %v", *req, got, want.ServiceMs)
		}
		if d.st.ys != -1 {
			t.Fatalf("Access left table row %d past the row cap", d.st.ys)
		}
	}
	if _, ok := yTables.Load(yKeyOf(g, sled)); ok || d.ytab != nil {
		t.Error("a Y seek table was built past the row cap")
	}
}

func TestYTableKeyedOnEveryInput(t *testing.T) {
	g := MustDevice(DefaultConfig()).Geometry()
	sled := g.Sled()
	ref := sharedYTable(g, sled)
	// Each variant differs from the Table 1 device in one field of yKey.
	for name, mut := range map[string]func(*Geometry, *physics.Sled){
		"sled accel":      func(_ *Geometry, s *physics.Sled) { s.Accel *= 1.01 },
		"sled spring":     func(_ *Geometry, s *physics.Sled) { s.SpringFactor = 0.5 },
		"sled half range": func(_ *Geometry, s *physics.Sled) { s.HalfRange *= 1.01 },
		"bits Y":          func(g *Geometry, _ *physics.Sled) { g.BitsY += 10 },
		"bit width":       func(g *Geometry, _ *physics.Sled) { g.BitWidth *= 1.01 },
		"tip sector bits": func(g *Geometry, _ *physics.Sled) { g.TipSectorBits++ },
		"rows per track":  func(g *Geometry, _ *physics.Sled) { g.RowsPerTrack-- },
		"access speed":    func(g *Geometry, _ *physics.Sled) { g.AccessSpeed *= 1.01 },
	} {
		g2, s2 := *g, *sled
		mut(&g2, &s2)
		if sharedYTable(&g2, &s2) == ref {
			t.Errorf("%s: shares the Table 1 device's Y seek table", name)
		}
	}
	// Inputs the Y solve does not read share the table.
	cfg := DefaultConfig()
	cfg.ResonantHz, cfg.SettleConstants, cfg.Overhead, cfg.SpareTips = 900, 2, 0.1, 1280
	g3 := MustDevice(cfg).Geometry()
	if sharedYTable(g3, g3.Sled()) != ref {
		t.Error("a change outside the Y geometry built a second table")
	}
}

// refAccess is Device.access as it was before the Y seek table: every
// seek solved. It is the reference the table-driven device must match.
func refAccess(g *Geometry, sled *physics.Sled, cyl int, yB float64, vdir int, req *core.Request) (core.Breakdown, int, float64, int) {
	bd := core.Breakdown{Overhead: g.Overhead}
	positioning := 0.0
	lbn := req.LBN
	remaining := req.Blocks
	for remaining > 0 {
		c, _, row, slot := g.Decompose(lbn)
		inTrack := g.SectorsPerTrack - (row*g.SectorsPerRow + slot)
		n := remaining
		if n > inTrack {
			n = inTrack
		}
		rowHi := (row*g.SectorsPerRow + slot + n - 1) / g.SectorsPerRow
		tb := float64(g.TipSectorBits)
		tx, xs := 0.0, 0.0
		if c != cyl {
			xs = sled.SeekTime(g.XPos(cyl), 0, g.XPos(c), 0) * 1e3
			tx = xs + g.SettleMs
		}
		vy := float64(vdir) * g.AccessSpeed
		tyF := sled.SeekTime(g.YPos(yB), vy, g.YPos(float64(row)*tb), g.AccessSpeed) * 1e3
		tyR := sled.SeekTime(g.YPos(yB), vy, g.YPos(float64(rowHi+1)*tb), -g.AccessSpeed) * 1e3
		ty, dir, end := tyF, 1, float64(rowHi+1)*tb
		if tyR < tyF {
			ty, dir, end = tyR, -1, float64(row)*tb
		}
		pos := tx
		if ty > pos {
			pos = ty
		}
		if tx >= ty {
			bd.Seek += xs
			if tx > 0 {
				bd.Settle += g.SettleMs
			}
		} else {
			bd.Seek += ty
		}
		positioning += pos
		bd.SeekX += tx
		bd.SeekY += ty
		bd.Transfer += float64(rowHi-row+1) * g.RowTimeMs
		bd.Segments++
		cyl, yB, vdir = c, end, dir
		lbn += int64(n)
		remaining -= n
	}
	bd.ServiceMs = positioning + bd.Transfer + bd.Overhead
	return bd, cyl, yB, vdir
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBreakdown(a, b core.Breakdown) bool {
	return sameBits(a.Seek, b.Seek) && sameBits(a.Settle, b.Settle) && sameBits(a.Turnaround, b.Turnaround) &&
		sameBits(a.Transfer, b.Transfer) && sameBits(a.Overhead, b.Overhead) && sameBits(a.Recovery, b.Recovery) &&
		sameBits(a.SeekX, b.SeekX) && sameBits(a.SeekY, b.SeekY) && a.Segments == b.Segments &&
		sameBits(a.ServiceMs, b.ServiceMs)
}

// randomRequest draws mostly small requests, with a tail long enough to
// span several tracks and cylinders.
func randomRequest(rng *rand.Rand, g *Geometry) *core.Request {
	blocks := 1 + rng.Intn(64)
	if rng.Intn(8) == 0 {
		blocks = 1 + rng.Intn(3*g.SectorsPerCylinder)
	}
	return reqAt(rng.Int63n(g.TotalSectors-int64(blocks)), blocks)
}

// TestDeviceMatchesSolverReference drives the table-backed device from
// on-grid states (those accesses leave), the Reset park and arbitrary
// SetState states, and checks every answer bit for bit against the
// solver-only reference.
func TestDeviceMatchesSolverReference(t *testing.T) {
	pairs := 100000
	if testing.Short() {
		pairs = 10000
	}
	for gi, gen := range generations {
		d := MustDevice(gen.cfg)
		g := d.Geometry()
		sled := g.Sled()
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		for i := 0; i < pairs/len(generations); i++ {
			switch rng.Intn(10) {
			case 0:
				d.Reset()
			case 1: // anywhere, any direction
				d.SetState(rng.Intn(g.Cylinders), rng.Float64()*float64(g.BitsY), rng.Intn(3)-1)
			case 2: // on a boundary, any direction
				b := rng.Intn(g.RowsPerTrack + 1)
				d.SetState(rng.Intn(g.Cylinders), float64(b*g.TipSectorBits), rng.Intn(3)-1)
			}
			cyl, yB, vdir := d.State()
			req := randomRequest(rng, g)
			want, wc, wy, wv := refAccess(g, sled, cyl, yB, vdir, req)

			if got := d.Detail(req); !sameBreakdown(got, want) {
				t.Fatalf("%s from (%d, %g, %+d), %+v: Detail %+v, reference %+v", gen.name, cyl, yB, vdir, *req, got, want)
			}
			if got := d.EstimateAccess(req, 0); !sameBits(got, want.ServiceMs) {
				t.Fatalf("%s from (%d, %g, %+d), %+v: EstimateAccess %v, reference %v", gen.name, cyl, yB, vdir, *req, got, want.ServiceMs)
			}
			ta := sled.TurnaroundTime(g.YPos(yB), float64(vdir)*g.AccessSpeed) * 1e3
			if got := d.Turnaround(yB, vdir); !sameBits(got, ta) {
				t.Fatalf("%s at (%g, %+d): Turnaround %v, reference %v", gen.name, yB, vdir, got, ta)
			}
			to := cyl + 1
			if to == g.Cylinders {
				to = cyl - 1
			}
			pen, err := fault.MEMSSeekErrorPenalty(ta, d.SeekX(cyl, to), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.ErrorPenalty(req, 0, 0.25); !sameBits(got, pen) {
				t.Fatalf("%s at (%d, %g, %+d): ErrorPenalty %v, reference %v", gen.name, cyl, yB, vdir, got, pen)
			}
			if got := d.Access(req, 0); !sameBits(got, want.ServiceMs) {
				t.Fatalf("%s from (%d, %g, %+d), %+v: Access %v, reference %v", gen.name, cyl, yB, vdir, *req, got, want.ServiceMs)
			}
			if c, y, v := d.State(); c != wc || !sameBits(y, wy) || v != wv {
				t.Fatalf("%s: Access left (%d, %g, %+d), reference (%d, %g, %+d)", gen.name, c, y, v, wc, wy, wv)
			}
		}
	}
}

// TestYTableConcurrentDevices builds devices of one new Y geometry and of
// the three generations from many goroutines at once, so that the first
// lookups race to build and publish the same tables; every answer must
// still match the solver-only reference. Run under -race.
func TestYTableConcurrentDevices(t *testing.T) {
	fresh := DefaultConfig()
	fresh.SledAccel = 777.7 // a Y geometry no other test builds
	cfgs := []Config{fresh, ConfigGen1(), ConfigGen2(), ConfigGen3()}
	const workers, perWorker = 8, 300
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				d, err := NewDevice(cfgs[(w+i)%len(cfgs)])
				if err != nil {
					t.Error(err)
					return
				}
				g := d.Geometry()
				// Leave the Reset park, so the next two calls start on the grid.
				d.Access(randomRequest(rng, g), 0)
				cyl, yB, vdir := d.State()
				req := randomRequest(rng, g)
				want, _, _, _ := refAccess(g, g.Sled(), cyl, yB, vdir, req)
				if est, got := d.EstimateAccess(req, 0), d.Access(req, 0); !sameBits(est, want.ServiceMs) || !sameBits(got, want.ServiceMs) {
					t.Errorf("worker %d: EstimateAccess %v, Access %v, reference %v", w, est, got, want.ServiceMs)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
