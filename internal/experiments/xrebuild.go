package experiments

import (
	"fmt"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("rebuild", rebuildPlan) }

// Rebuild (extension) closes the §6.2 redundancy story dynamically: a
// member of a live redundant volume is killed mid-run and the volume
// keeps serving — degraded reads reconstruct from the peers, a hot
// spare takes over, and an online rebuild streams the dead member's
// contents back while competing with foreground traffic in the member
// queues. MEMS volumes close the vulnerability window several times
// faster than the Atlas 10K array at equal per-member capacity, at
// every rebuild-throttle setting, while degraded-mode foreground
// service stays in single milliseconds instead of tens.
func Rebuild(p Params) []Table { return mustRun(rebuildPlan(p)) }

// rebuildOutcome is one run's summary, returned by the job's Custom body.
type rebuildOutcome struct {
	mttrS       float64 // failure to rebuild completion, seconds
	healthyP95  float64 // foreground p95 before failure / after failover, ms
	degradedP95 float64 // foreground p95 while degraded, ms
	chunks      int
	lost        int
}

// Shared volume geometry for the rebuild and mttdl artifacts: equal
// per-member capacity for both device types — the full MEMS G1 sled
// (6,750,000 sectors = 2500 cylinder-sized rebuild chunks), well inside
// the Atlas 10K's 16.9 M sectors.
const (
	rebuildPerMember = 6750000
	rebuildChunk     = 2700
)

// rebuildParityCfg is the 4-member rotated-parity volume + hot spare.
func rebuildParityCfg() array.VolumeConfig {
	return array.VolumeConfig{
		Level: array.VolParity, Members: 4, Spares: 1,
		StripeUnit: rebuildChunk, PerMember: rebuildPerMember,
	}
}

// rebuildMirrorCfg is the mirrored pair + hot spare.
func rebuildMirrorCfg() array.VolumeConfig {
	return array.VolumeConfig{
		Level: array.VolMirror, Members: 2, Spares: 1,
		StripeUnit: rebuildChunk, PerMember: rebuildPerMember,
	}
}

// rebuildDevice pairs a device factory with a per-device arrival rate
// sized to comparable utilization (the disk volume saturates far below
// the MEMS volume — the fig. 6 regime).
type rebuildDevice struct {
	name string
	mk   core.DeviceFactory
	rate float64
}

func rebuildDevices() []rebuildDevice {
	return []rebuildDevice{
		{"MEMS", func() core.Device { return mems.MustDevice(mems.DefaultConfig()) }, 1000},
		{"Atlas 10K", func() core.Device { return newDisk() }, 150},
	}
}

func rebuildPlan(p Params) *Plan {
	// Policy selection (cmd/memsbench -rebuild-policy): the default ""
	// runs the fixed-throttle sweep plus the adaptive row, so the fixed
	// frontier is the baseline adaptive must beat; "fixed" reproduces the
	// historical sweep alone; "adaptive" runs only the adaptive row (the
	// fast CI smoke path).
	fracs := []float64{0.1, 0.3, 0.6, 1.0}
	if p.RebuildFrac > 0 {
		seen := false
		for _, f := range fracs {
			if f == p.RebuildFrac {
				seen = true
			}
		}
		if !seen {
			fracs = append(fracs, p.RebuildFrac)
		}
	}
	adaptive := p.RebuildPolicy != "fixed"
	if p.RebuildPolicy == "adaptive" {
		fracs = nil
	}

	devices := rebuildDevices()
	parityCfg := rebuildParityCfg()
	mirrorCfg := rebuildMirrorCfg()

	grid := make([][]*runner.Job, len(fracs))
	var jobs []*runner.Job
	for fi, frac := range fracs {
		grid[fi] = make([]*runner.Job, len(devices))
		for di, dev := range devices {
			dev, frac := dev, frac
			j := &runner.Job{
				Label: fmt.Sprintf("rebuild %s f=%g", dev.name, frac),
				Seed:  p.Seed,
			}
			j.Custom = func(job *runner.Job) any {
				out := rebuildRun(job, parityCfg, dev.mk, dev.rate, sim.FixedRebuild{Frac: frac}, p)
				if err := job.Ctx().Err(); err != nil {
					return err
				}
				return out
			}
			grid[fi][di] = j
			jobs = append(jobs, j)
		}
	}
	var adaptiveJobs []*runner.Job
	if adaptive {
		adaptiveJobs = make([]*runner.Job, len(devices))
		for di, dev := range devices {
			dev := dev
			j := &runner.Job{
				Label: fmt.Sprintf("rebuild %s adaptive", dev.name),
				Seed:  p.Seed,
			}
			j.Custom = func(job *runner.Job) any {
				out := rebuildRun(job, parityCfg, dev.mk, dev.rate, sim.AdaptiveRebuild{}, p)
				if err := job.Ctx().Err(); err != nil {
					return err
				}
				return out
			}
			adaptiveJobs[di] = j
			jobs = append(jobs, j)
		}
	}
	var mirror []*runner.Job
	if p.RebuildPolicy != "adaptive" {
		mirror = make([]*runner.Job, len(devices))
		for di, dev := range devices {
			dev := dev
			j := &runner.Job{
				Label: fmt.Sprintf("rebuild mirror %s f=0.3", dev.name),
				Seed:  p.Seed,
			}
			j.Custom = func(job *runner.Job) any {
				out := rebuildRun(job, mirrorCfg, dev.mk, dev.rate, sim.FixedRebuild{Frac: 0.3}, p)
				if err := job.Ctx().Err(); err != nil {
					return err
				}
				return out
			}
			mirror[di] = j
			jobs = append(jobs, j)
		}
	}

	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			a := Table{
				ID:    "rebuild",
				Title: "online rebuild of a failed member, 4-member rotated-parity volume + hot spare (equal per-member capacity)",
				Columns: []string{"throttle", "MEMS MTTR(s)", "disk MTTR(s)", "disk/MEMS",
					"MEMS chunks", "lost requests"},
			}
			b := Table{
				ID:    "rebuild-fg",
				Title: "foreground p95 response (ms) around the failure, same runs",
				Columns: []string{"throttle", "MEMS healthy", "MEMS degraded",
					"disk healthy", "disk degraded"},
			}
			addRows := func(label string, mj, dj *runner.Job) {
				m := mj.Value().(rebuildOutcome)
				d := dj.Value().(rebuildOutcome)
				a.AddRow(label, f2(m.mttrS), f2(d.mttrS), f2(d.mttrS/m.mttrS),
					fmt.Sprintf("%d", m.chunks), fmt.Sprintf("%d", m.lost+d.lost))
				b.AddRow(label, ms(m.healthyP95), ms(m.degradedP95),
					ms(d.healthyP95), ms(d.degradedP95))
			}
			for fi, frac := range fracs {
				addRows(f2(frac), grid[fi][0], grid[fi][1])
			}
			if adaptive {
				addRows("adaptive", adaptiveJobs[0], adaptiveJobs[1])
			}
			out := []Table{a, b}
			if mirror != nil {
				c := Table{
					ID:      "rebuild-mirror",
					Title:   "mirrored pair + hot spare, rebuild throttle 0.3",
					Columns: []string{"device", "MTTR(s)", "p95 healthy(ms)", "p95 degraded(ms)"},
				}
				for di, dev := range devices {
					o := mirror[di].Value().(rebuildOutcome)
					c.AddRow(dev.name, f2(o.mttrS), ms(o.healthyP95), ms(o.degradedP95))
				}
				out = append(out, c)
			}
			return out
		},
	}
}

// rebuildRun drives one volume through a mid-run member failure and
// online rebuild paced by policy, and distills the failover metrics.
func rebuildRun(job *runner.Job, cfg array.VolumeConfig, mk core.DeviceFactory,
	rate float64, policy sim.RebuildPolicy, p Params) rebuildOutcome {
	v, err := array.NewVolume(cfg)
	if err != nil {
		panic(err)
	}
	n := cfg.Devices()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mk()
		scheds[i] = memberSched(p)
	}
	// Kill the chosen member a quarter of the way through the arrival
	// stream, so the run measures healthy service on both sides of a
	// mid-run failure.
	failMs := 0.25 * float64(p.Requests) / rate * 1000
	// The full retry envelope rides along so -fault-rate layers transient
	// per-attempt errors on top of the scheduled device kill; at the
	// default rate 0 the budgets are never consulted and the run is
	// identical to a pure device-failure schedule.
	icfg := fault.DefaultInjectorConfig()
	icfg.Seed = p.faultSeed()
	icfg.TransientRate = p.FaultRate
	icfg.DeviceEvents = []fault.DeviceEvent{{AtMs: failMs, Dev: p.FailDev % cfg.Members}}
	inj, err := fault.NewInjector(icfg)
	if err != nil {
		panic(err)
	}
	src := workload.NewRandom(workload.RandomConfig{
		Rate:         rate,
		ReadFraction: 0.67,
		MeanBytes:    4096,
		MaxBytes:     32 * 1024,
		SectorSize:   devs[0].SectorSize(),
		Capacity:     cfg.Capacity(),
		Count:        p.Requests,
		Seed:         p.Seed,
	})
	res, err := sim.RunVolume(job.SimContext(), sim.VolumeSpec{
		Volume: v, Devices: devs, Scheds: scheds,
		RebuildChunk: int(cfg.StripeUnit), RebuildPolicy: policy,
	}, src, job.SimOptions(sim.Options{Warmup: p.Warmup, Injector: inj}))
	if err != nil {
		panic(err)
	}
	job.SimMs = res.Elapsed
	vs := res.Volume
	return rebuildOutcome{
		mttrS:       vs.RebuildMs / 1000,
		healthyP95:  vs.Healthy.P95(),
		degradedP95: vs.Degraded.P95(),
		chunks:      vs.RebuildChunks,
		lost:        vs.LostRequests,
	}
}
