package mems

import (
	"math"
	"testing"
)

// FuzzGeometry checks that NewGeometry either rejects a config or yields
// a geometry whose LBN and Decompose are inverse on sampled blocks and
// coordinates, and whose device prices in-range requests without
// panicking: Detail, EstimateAccess and Access agree with each other and
// with the solver-only reference, and EstimateAccess leaves the state
// alone. The integer fields of the config are fuzzed; the rest keep
// their Table 1 values.
func FuzzGeometry(f *testing.F) {
	add := func(c Config, lbnQ uint64, blocksQ uint16) {
		f.Add(int32(c.Tips), int32(c.ActiveTips), int32(c.SpareTips), int32(c.BitsX), int32(c.BitsY),
			int16(c.ServoBits), int16(c.EncodedBits), int16(c.DataBytes), int16(c.SectorSize), lbnQ, blocksQ)
	}
	add(ConfigGen1(), 123456789, 8)
	add(ConfigGen2(), 1<<40, 3000)
	add(ConfigGen3(), 7, 1)
	c := DefaultConfig()
	c.BitsX = 1 // one cylinder
	add(c, 99, 600)
	c = DefaultConfig()
	c.ServoBits, c.EncodedBits = 0, 8 // 312 rows per track: no Y table
	add(c, 5555, 400)
	c = DefaultConfig()
	c.ServoBits, c.EncodedBits = 0, 0 // zero-bit tip sector
	add(c, 0, 1)
	c = DefaultConfig()
	c.SectorSize = 0
	add(c, 0, 1)
	c = DefaultConfig()
	c.ServoBits = -5
	add(c, 0, 1)
	c = DefaultConfig()
	c.Tips, c.ActiveTips, c.BitsX, c.BitsY, c.ServoBits, c.EncodedBits = 1<<31-1, 1<<31-1, 1<<31-1, 1<<31-1, 0, 1
	add(c, math.MaxUint64, math.MaxUint16)

	f.Fuzz(func(t *testing.T, tips, active, spare, bitsX, bitsY int32, servo, encoded, dataBytes, sectorSize int16, lbnQ uint64, blocksQ uint16) {
		cfg := DefaultConfig()
		cfg.Tips, cfg.ActiveTips, cfg.SpareTips = int(tips), int(active), int(spare)
		cfg.BitsX, cfg.BitsY = int(bitsX), int(bitsY)
		cfg.ServoBits, cfg.EncodedBits = int(servo), int(encoded)
		cfg.DataBytes, cfg.SectorSize = int(dataBytes), int(sectorSize)
		g, err := NewGeometry(cfg)
		if err != nil {
			return
		}
		if g.SectorsPerCylinder <= 0 || g.SectorsPerCylinder > math.MaxUint32 ||
			g.TotalSectors != int64(g.Cylinders)*int64(g.SectorsPerCylinder) {
			t.Fatalf("%+v: %d sectors per cylinder, %d in total", cfg, g.SectorsPerCylinder, g.TotalSectors)
		}

		// LBN ∘ Decompose = id on sampled blocks, the device's ends included.
		last := g.TotalSectors - 1
		for _, lbn := range []int64{0, last, int64(lbnQ % uint64(g.TotalSectors))} {
			cyl, track, row, slot := g.Decompose(lbn)
			if got := g.LBN(cyl, track, row, slot); got != lbn {
				t.Fatalf("%+v: Decompose(%d) = (%d, %d, %d, %d), which LBN maps to %d", cfg, lbn, cyl, track, row, slot, got)
			}
		}
		// Decompose ∘ LBN = id on coordinates drawn from the same input.
		cyl := int(lbnQ % uint64(g.Cylinders))
		track := int(lbnQ>>16) % g.TracksPerCylinder
		row := int(lbnQ>>32) % g.RowsPerTrack
		slot := int(lbnQ>>48) % g.SectorsPerRow
		if c, tr, r, s := g.Decompose(g.LBN(cyl, track, row, slot)); c != cyl || tr != track || r != row || s != slot {
			t.Fatalf("%+v: (%d, %d, %d, %d) round-trips to (%d, %d, %d, %d)", cfg, cyl, track, row, slot, c, tr, r, s)
		}

		// Tables built here are dropped again so that fuzzing many
		// geometries does not grow the process-wide cache without bound.
		sled := g.Sled()
		k := yKeyOf(g, sled)
		if _, had := yTables.Load(k); !had {
			defer yTables.Delete(k)
		}
		d, err := NewDevice(cfg)
		if err != nil {
			t.Fatalf("%+v: NewGeometry accepts, NewDevice rejects: %v", cfg, err)
		}
		lbn := int64(lbnQ % uint64(g.TotalSectors))
		blocks := 1 + int(int64(blocksQ)%(g.TotalSectors-lbn))
		// Twice: from the Reset park (off the Y grid), then from the
		// state the first access leaves (on it, when g has a Y table).
		for i := 0; i < 2; i++ {
			req := reqAt(lbn, blocks)
			c, yB, vdir := d.State()
			want, wc, wy, wv := refAccess(g, sled, c, yB, vdir, req)
			if got := d.Detail(req); !sameBreakdown(got, want) {
				t.Fatalf("%+v, %+v: Detail %+v, reference %+v", cfg, *req, got, want)
			}
			if got := d.EstimateAccess(req, 0); !sameBits(got, want.ServiceMs) {
				t.Fatalf("%+v, %+v: EstimateAccess %v, reference %v", cfg, *req, got, want.ServiceMs)
			}
			if c2, y2, v2 := d.State(); c2 != c || !sameBits(y2, yB) || v2 != vdir {
				t.Fatalf("%+v: EstimateAccess moved the sled", cfg)
			}
			if pen := d.ErrorPenalty(req, 0, 0.75); !(pen >= 0) {
				t.Fatalf("%+v: ErrorPenalty %v", cfg, pen)
			}
			if got := d.Access(req, 0); !sameBits(got, want.ServiceMs) {
				t.Fatalf("%+v, %+v: Access %v, reference %v", cfg, *req, got, want.ServiceMs)
			}
			if bd, ok := d.LastBreakdown(); !ok || !sameBreakdown(bd, want) {
				t.Fatalf("%+v: LastBreakdown %+v, reference %+v", cfg, bd, want)
			}
			if c2, y2, v2 := d.State(); c2 != wc || !sameBits(y2, wy) || v2 != wv {
				t.Fatalf("%+v: Access left (%d, %g, %+d), reference (%d, %g, %+d)", cfg, c2, y2, v2, wc, wy, wv)
			}
			lbn = int64((lbnQ * 0x9e3779b97f4a7c15) % uint64(g.TotalSectors))
			blocks = 1 + int(int64(blocksQ>>3)%(g.TotalSectors-lbn))
		}
	})
}
