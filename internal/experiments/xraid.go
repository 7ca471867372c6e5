package experiments

import (
	"fmt"
	"math/rand"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/runner"
)

func init() { register("raid", raidPlan) }

// RAID quantifies the §6.2 claim at array level (extension; no paper
// figure): MEMS-based storage's near-zero read-modify-write
// repositioning "obviates the need for the many optimizations" built to
// hide RAID-5's small-write penalty on disks. Four-member RAID-5 arrays
// of each device type service 4 KB writes, degraded reads, and a full
// member rebuild.
func RAID(p Params) []Table { return mustRun(raidPlan(p)) }

func raidPlan(p Params) *Plan {
	trials := p.Trials / 4
	if trials < 50 {
		trials = 50
	}
	memsArr := func() *array.Array { return mustArray(memsMembers(4)) }
	diskArr := func() *array.Array { return mustArray(diskMembers(4)) }

	// One job per (metric, device) measurement — every job builds its own
	// array, so all eight run independently.
	type metric struct {
		name    string
		measure func(mk func() *array.Array) float64
	}
	metrics := []metric{
		{"4 KB RAID-5 write (read-modify-write)", func(mk func() *array.Array) float64 {
			return raidSmallWrite(mk(), trials, p.Seed)
		}},
		{"4 KB read, healthy", func(mk func() *array.Array) float64 {
			return raidRandomRead(mk(), trials, p.Seed, false)
		}},
		{"4 KB read, degraded (reconstruct)", func(mk func() *array.Array) float64 {
			return raidRandomRead(mk(), trials, p.Seed, true)
		}},
		{"member rebuild (full scan)", func(mk func() *array.Array) float64 {
			a := mk()
			a.FailMember(1)
			return a.RebuildTime(2700) / 1000 // seconds
		}},
	}
	devices := []struct {
		name string
		mk   func() *array.Array
	}{{"MEMS", memsArr}, {"disk", diskArr}}

	grid := make([][]*runner.Job, len(metrics))
	var jobs []*runner.Job
	for mi, m := range metrics {
		grid[mi] = make([]*runner.Job, len(devices))
		for di, dev := range devices {
			j := &runner.Job{
				Label: fmt.Sprintf("raid %s %s", dev.name, m.name),
				Seed:  p.Seed,
				Custom: func(*runner.Job) any {
					return m.measure(dev.mk)
				},
			}
			grid[mi][di] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "raid",
				Title:   "4-member RAID-5: small-write and degraded-mode costs",
				Columns: []string{"metric", "MEMS array", "Atlas 10K array", "disk/MEMS"},
			}
			for mi, m := range metrics {
				mv := grid[mi][0].Value().(float64)
				dv := grid[mi][1].Value().(float64)
				if m.name == "member rebuild (full scan)" {
					t.AddRow(m.name, fmt.Sprintf("%.1f s", mv), fmt.Sprintf("%.1f s", dv),
						f2(dv/mv)+"×")
				} else {
					t.AddRow(m.name, ms(mv), ms(dv), f2(dv/mv)+"×")
				}
			}
			return []Table{t}
		},
	}
}

func memsMembers(n int) ([]core.Device, array.Config) {
	m := make([]core.Device, n)
	for i := range m {
		m[i] = mems.MustDevice(mems.DefaultConfig())
	}
	return m, array.Config{Level: array.VolParity, StripeUnit: 8}
}

func diskMembers(n int) ([]core.Device, array.Config) {
	m := make([]core.Device, n)
	for i := range m {
		m[i] = disk.MustDevice(disk.Atlas10K())
	}
	return m, array.Config{Level: array.VolParity, StripeUnit: 8}
}

func mustArray(members []core.Device, cfg array.Config) *array.Array {
	a, err := array.New(cfg, members)
	if err != nil {
		panic(err) // construction parameters are fixed above
	}
	return a
}

func raidSmallWrite(a *array.Array, trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	now, sum := 0.0, 0.0
	for i := 0; i < trials; i++ {
		lbn := rng.Int63n(a.Capacity()-8) / 8 * 8
		svc := a.Access(&core.Request{Op: core.Write, LBN: lbn, Blocks: 8}, now)
		sum += svc
		now += svc
	}
	return sum / float64(trials)
}

func raidRandomRead(a *array.Array, trials int, seed int64, degraded bool) float64 {
	if degraded {
		a.FailMember(0)
	}
	rng := rand.New(rand.NewSource(seed))
	now, sum := 0.0, 0.0
	for i := 0; i < trials; i++ {
		lbn := rng.Int63n(a.Capacity()-8) / 8 * 8
		svc := a.Access(&core.Request{Op: core.Read, LBN: lbn, Blocks: 8}, now)
		sum += svc
		now += svc
	}
	return sum / float64(trials)
}
