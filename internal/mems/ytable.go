package mems

import (
	"sync"

	"memsim/internal/physics"
)

// yTable holds the exact Y seek time, in ms, between the sled states
// every access leaves behind: resting on a row boundary b ∈ [0,
// RowsPerTrack] and moving at ±AccessSpeed. Each entry is the solver's
// own result for the same arguments Device.access would pass, so a
// lookup is bit for bit the solve it replaces. Start states with zero
// velocity (Reset's park, SetState) are left to the solver: no access
// produces them, and without them the table of every generation in
// generations.go stays under 64 KB.
//
// A table is immutable once built and is shared by every device with the
// same Y geometry.
type yTable struct {
	nb int       // row boundaries per track: RowsPerTrack+1
	ms []float64 // [yState(b0, d0)][b1][(d1+1)/2], 4·nb² entries
}

// maxYTableRows caps a table at 4·(maxYTableRows+1)² entries (2.1 MB),
// against 44 rows per track for the densest generation. A geometry with
// more rows has no table: all its states are off the grid, so every Y
// seek is solved and no config NewGeometry accepts can make the first
// access allocate without bound.
const maxYTableRows = 256

// yState is the table's index of the start state on boundary b moving in
// direction dir (±1); yState(b, dir)/2 recovers b.
func yState(b, dir int) int { return 2*b + (dir+1)/2 }

// yStateAt is yState for g's devices: −1 when g's rows exceed the cap.
func (g *Geometry) yStateAt(b, dir int) int {
	if g.RowsPerTrack > maxYTableRows {
		return -1
	}
	return yState(b, dir)
}

// seek returns the time in ms from start state s to boundary b, arriving
// in direction dir (±1) at AccessSpeed.
func (t *yTable) seek(s, b, dir int) float64 { return t.ms[(s*t.nb+b)*2+(dir+1)/2] }

func newYTable(g *Geometry, sled *physics.Sled) *yTable {
	nb := g.RowsPerTrack + 1
	tb := float64(g.TipSectorBits)
	t := &yTable{nb: nb, ms: make([]float64, 4*nb*nb)}
	for b0 := 0; b0 < nb; b0++ {
		y0 := g.YPos(float64(b0) * tb)
		for d0 := -1; d0 <= 1; d0 += 2 {
			v0 := float64(d0) * g.AccessSpeed
			for b1 := 0; b1 < nb; b1++ {
				y1 := g.YPos(float64(b1) * tb)
				for d1 := -1; d1 <= 1; d1 += 2 {
					t.ms[(yState(b0, d0)*nb+b1)*2+(d1+1)/2] =
						sled.SeekTime(y0, v0, y1, float64(d1)*g.AccessSpeed) * 1e3
				}
			}
		}
	}
	return t
}

// yKey is everything a Y seek solve reads: the sled, and the geometry
// that places boundaries and sets the sweep speed.
type yKey struct {
	sled                               physics.Sled
	bitsY, tipSectorBits, rowsPerTrack int
	bitWidth, accessSpeed              float64
}

func yKeyOf(g *Geometry, sled *physics.Sled) yKey {
	return yKey{*sled, g.BitsY, g.TipSectorBits, g.RowsPerTrack, g.BitWidth, g.AccessSpeed}
}

// yTables maps each yKey met in the process to its *yTable. Entries are
// deterministic in their key and never change once stored, so sharing
// them cannot couple one device's results to another's.
var yTables sync.Map

// sharedYTable returns the table for g's Y geometry under sled, building
// it on first use. A table is complete before it is published; goroutines
// that race on a new key each build one and all adopt the first stored.
func sharedYTable(g *Geometry, sled *physics.Sled) *yTable {
	k := yKeyOf(g, sled)
	if t, ok := yTables.Load(k); ok {
		return t.(*yTable)
	}
	t, _ := yTables.LoadOrStore(k, newYTable(g, sled))
	return t.(*yTable)
}

// yStateOf returns the table index of the Y state (yB, vdir), or −1 when
// the state is off the table's grid: not on a row boundary, or not
// moving at ±AccessSpeed.
func (g *Geometry) yStateOf(yB float64, vdir int) int {
	if (vdir != 1 && vdir != -1) || !(yB >= 0) || yB > float64(g.RowsPerTrack*g.TipSectorBits) {
		return -1
	}
	b := int(yB) / g.TipSectorBits
	if float64(b)*float64(g.TipSectorBits) != yB {
		return -1
	}
	return g.yStateAt(b, vdir)
}
