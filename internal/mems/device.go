package mems

import (
	"fmt"

	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/physics"
)

// state is the sled's mechanical state between requests.
type state struct {
	cyl  int     // cylinder currently under the tips
	yB   float64 // Y bit-boundary coordinate in [0, BitsY]
	vdir int     // Y velocity direction: −1, 0, +1 (times AccessSpeed)
	ys   int     // Geometry.yStateOf(yB, vdir): Y seek table row, or −1
}

// Device is the MEMS-based storage device model. It implements
// core.Device. Access and EstimateAccess are deterministic functions of
// the device's mechanical state and the request, per the model of §2–§3.
type Device struct {
	geo  *Geometry
	sled *physics.Sled
	ytab *yTable // shared Y seek table, looked up at the first on-grid seek
	st   state

	last    core.Breakdown
	hasLast bool
}

var (
	_ core.Device            = (*Device)(nil)
	_ core.BreakdownReporter = (*Device)(nil)
)

// NewDevice builds a device from cfg, validating the geometry.
func NewDevice(cfg Config) (*Device, error) {
	g, err := NewGeometry(cfg)
	if err != nil {
		return nil, err
	}
	d := &Device{geo: g, sled: g.Sled()}
	d.Reset()
	return d, nil
}

// MustDevice is NewDevice for known-good configurations; it panics on
// error and exists for tests and examples.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry exposes the derived geometry (shared with layouts and
// experiments).
func (d *Device) Geometry() *Geometry { return d.geo }

// Name implements core.Device.
func (d *Device) Name() string { return "MEMS" }

// Capacity implements core.Device.
func (d *Device) Capacity() int64 { return d.geo.TotalSectors }

// SectorSize implements core.Device.
func (d *Device) SectorSize() int { return d.geo.SectorSize }

// Reset implements core.Device: the sled parks at the center, at rest.
func (d *Device) Reset() {
	d.st = state{cyl: d.geo.Cylinders / 2, yB: float64(d.geo.BitsY) / 2, vdir: 0, ys: -1}
	d.last, d.hasLast = core.Breakdown{}, false
}

// Access implements core.Device. The now parameter is unused: unlike a
// disk, the device has no free-running rotation, so service time does not
// depend on absolute time (§2.4.8).
func (d *Device) Access(req *core.Request, _ float64) float64 {
	d.st = d.access(d.st, req, &d.last)
	d.hasLast = true
	return d.last.ServiceMs
}

// EstimateAccess implements core.Device.
func (d *Device) EstimateAccess(req *core.Request, _ float64) float64 {
	var bd core.Breakdown
	d.access(d.st, req, &bd)
	return bd.ServiceMs
}

// LastBreakdown implements core.BreakdownReporter: the phase
// decomposition of the most recent Access.
func (d *Device) LastBreakdown() (core.Breakdown, bool) { return d.last, d.hasLast }

// Detail returns the mechanical breakdown Access would produce for req
// from the current state, without changing state.
func (d *Device) Detail(req *core.Request) (bd core.Breakdown) {
	d.access(d.st, req, &bd)
	return bd
}

// EstimateBreakdown implements core.BreakdownEstimator. Like Access, it
// ignores absolute time: the sled has no free-running rotation.
func (d *Device) EstimateBreakdown(req *core.Request, _ float64) (bd core.Breakdown) {
	d.access(d.st, req, &bd)
	return bd
}

// access computes the service of req from state st into *bd and returns
// the state it leaves. Filling the caller's breakdown in place keeps the
// estimate path free of struct copies. Requests are split
// into track spans ("segments"); each segment is swept in whichever Y
// direction positions faster — tips access the media in the ±Y direction
// (§2.2, Fig. 3), which is also what lets read-modify-write sequences pay
// only a turnaround (§6.2).
//
// Phase attribution: per segment the positioning time is
// max(X seek + settle, Y seek) — the axes proceed in parallel (§2.4.1),
// so the lesser is hidden by the greater. When the X path dominates, the
// segment charges Seek (the raw X seek) and Settle; when the Y path
// dominates it charges only Seek (Y seeks have no settle and fold any
// turnaround into the spring-limited trajectory). ServiceMs accumulates
// in the historical operation order, so totals are bit-identical to the
// pre-decomposition model.
//
// X seeks are rest to rest and go through the exact kernel
// physics.Sled.RestSeekTime. Y seeks from a state on the table's grid
// (every state an access leaves) are looked up in the shared yTable, the
// rest are solved.
func (d *Device) access(st state, req *core.Request, bd *core.Breakdown) state {
	g := d.geo
	if req.Blocks <= 0 {
		panic(fmt.Sprintf("mems: request with %d blocks", req.Blocks))
	}
	if req.LBN < 0 || req.LBN+int64(req.Blocks) > g.TotalSectors {
		panic(fmt.Sprintf("mems: request [%d,%d) outside device capacity %d",
			req.LBN, req.LBN+int64(req.Blocks), g.TotalSectors))
	}
	*bd = core.Breakdown{Overhead: g.Overhead}
	positioning := 0.0
	lbn := req.LBN
	remaining := req.Blocks
	for remaining > 0 {
		// The track only selects the active tips, not the sled position.
		cyl, _, row, slot := g.Decompose(lbn)
		// Sectors left in this track from (row, slot).
		inTrack := g.SectorsPerTrack - (row*g.SectorsPerRow + slot)
		n := remaining
		if n > inTrack {
			n = inTrack
		}
		rowHi := int(uint32(row*g.SectorsPerRow+slot+n-1) / uint32(g.SectorsPerRow))

		tb := float64(g.TipSectorBits)
		// X positioning (with settle) happens once per cylinder change.
		tx, xs := 0.0, 0.0
		if cyl != st.cyl {
			xs = d.sled.RestSeekTime(g.XPos(st.cyl), g.XPos(cyl)) * 1e3
			tx = xs + g.SettleMs
		}
		// Forward sweep: start at the top boundary of the first row
		// moving +Y; reverse sweep: start at the bottom boundary of the
		// last row moving −Y.
		var tyF, tyR float64
		if st.ys >= 0 {
			t := d.yTable()
			tyF, tyR = t.seek(st.ys, row, 1), t.seek(st.ys, rowHi+1, -1)
		} else {
			vy := float64(st.vdir) * g.AccessSpeed
			tyF = d.sled.SeekTime(g.YPos(st.yB), vy, g.YPos(float64(row)*tb), g.AccessSpeed) * 1e3
			tyR = d.sled.SeekTime(g.YPos(st.yB), vy, g.YPos(float64(rowHi+1)*tb), -g.AccessSpeed) * 1e3
		}
		ty, dir, end := tyF, 1, rowHi+1
		if tyR < tyF {
			ty, dir, end = tyR, -1, row
		}
		pos := tx
		if ty > pos {
			pos = ty
		}
		if tx >= ty {
			// X path dominates (only possible after a cylinder change,
			// else tx = 0 ≥ ty means both are free).
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

		st = state{cyl: cyl, yB: float64(end) * tb, vdir: dir, ys: g.yStateAt(end, dir)}
		lbn += int64(n)
		remaining -= n
	}
	bd.ServiceMs = positioning + bd.Transfer + bd.Overhead
	return st
}

// ErrorPenalty implements core.RecoveryModel with the §6.1.3 MEMS
// model: recovering from a transient positioning error costs one or two
// Y turnarounds (u < 0.5 selects one, the expected case) plus a short
// repositioning seek — and nothing more, because the sled's motion is
// fully controlled: there is no free-running rotation to re-miss
// (§2.4.8). The turnaround is priced at the sled's current position and
// velocity, the short seek as a single-cylinder X move. A one-cylinder
// device has no neighbouring cylinder, so it charges no X move.
func (d *Device) ErrorPenalty(_ *core.Request, _ float64, u float64) float64 {
	turnarounds := 1
	if u >= 0.5 {
		turnarounds = 2
	}
	ta := d.turnaround(d.st)
	to := d.st.cyl + 1
	if to >= d.geo.Cylinders {
		to = max(d.st.cyl-1, 0)
	}
	pen, err := fault.MEMSSeekErrorPenalty(ta, d.SeekX(d.st.cyl, to), turnarounds)
	if err != nil {
		// Unreachable: turnarounds ∈ {1,2} by construction.
		panic(err)
	}
	return pen
}

// SeekX returns the X-dimension seek time in ms between two cylinders
// (rest to rest, including settle when the cylinders differ). Exposed for
// the data-placement experiments (§5).
func (d *Device) SeekX(from, to int) float64 {
	if from == to {
		return 0
	}
	return d.sled.RestSeekTime(d.geo.XPos(from), d.geo.XPos(to))*1e3 + d.geo.SettleMs
}

// Turnaround returns the time in ms to reverse the sled's Y direction at
// bit boundary b, moving in direction dir before the reversal.
func (d *Device) Turnaround(b float64, dir int) float64 {
	return d.turnaround(state{yB: b, vdir: dir, ys: d.geo.yStateOf(b, dir)})
}

// turnaround prices reversing the Y direction of state st: a table
// lookup on the grid, the solver elsewhere.
func (d *Device) turnaround(st state) float64 {
	if st.ys >= 0 {
		return d.yTable().seek(st.ys, st.ys/2, -st.vdir)
	}
	return d.sled.TurnaroundTime(d.geo.YPos(st.yB), float64(st.vdir)*d.geo.AccessSpeed) * 1e3
}

// yTable returns the device's shared Y seek table, looking it up on
// first use so that building a device costs no more than its geometry.
func (d *Device) yTable() *yTable {
	if d.ytab == nil {
		d.ytab = sharedYTable(d.geo, d.sled)
	}
	return d.ytab
}

// State returns the current cylinder, Y boundary, and direction; tests
// and experiments use it to verify mechanical behavior.
func (d *Device) State() (cyl int, yB float64, vdir int) {
	return d.st.cyl, d.st.yB, d.st.vdir
}

// SetState forces the mechanical state; experiments use it to measure
// position-dependent costs (e.g. Fig. 9's subregion map).
func (d *Device) SetState(cyl int, yB float64, vdir int) {
	if cyl < 0 || cyl >= d.geo.Cylinders || yB < 0 || yB > float64(d.geo.BitsY) {
		panic(fmt.Sprintf("mems: SetState out of range: cyl=%d yB=%g", cyl, yB))
	}
	d.st = state{cyl: cyl, yB: yB, vdir: vdir, ys: d.geo.yStateOf(yB, vdir)}
}
