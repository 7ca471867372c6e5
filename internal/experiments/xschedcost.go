package experiments

import (
	"fmt"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/fault"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

func init() { register("schedcost", schedCostPlan) }

// SchedCost (extension) exercises the cost-model scheduling framework
// along both of its axes. Part one compares plain SPTF against the
// settle-aware variant on each device type under the random workload:
// SettleAware discounts the settling floor every candidate must pay, so
// on the MEMS device (where settling dominates positioning, §4.1) it
// ranks candidates by the portion of service the scheduler can actually
// influence. Part two runs the rebuild regime with class-aware Priority
// member queues: degraded-mode reconstruction reads jump ahead of
// foreground and rebuild traffic, bounding the degraded-read tail that
// plain SPTF lets rebuild chunks inflate.
func SchedCost(p Params) []Table { return mustRun(schedCostPlan(p)) }

// memberSched constructs one volume member scheduler per the
// Params.MemberSched contract (empty selects the historical SPTF
// default). An unknown name panics — cmd/memsbench validates the flag
// at parse time, so reaching the panic means a caller bypassed
// validation.
func memberSched(p Params) core.Scheduler {
	name := p.MemberSched
	if name == "" {
		name = "SPTF"
	}
	s, err := sched.New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// schedCostSchedulers is the single-device comparison set; a -sched
// override appends one more policy to the sweep.
func schedCostSchedulers(p Params) []string {
	names := []string{"SPTF", "SettleAware"}
	if p.Sched != "" {
		for _, n := range names {
			if n == p.Sched {
				return names
			}
		}
		names = append(names, p.Sched)
	}
	return names
}

// schedCostDevice pairs a device with an arrival rate in the contended
// region where queue order matters (utilization ≈ 0.8, cf. figs. 5/6).
type schedCostDevice struct {
	name string
	mk   core.DeviceFactory
	rate float64
}

func schedCostDevices() []schedCostDevice {
	return []schedCostDevice{
		{"MEMS", memsFactory(1), 1000},
		{"Atlas 10K", func() core.Device { return newDisk() }, 100},
	}
}

// schedCostOutcome is one single-device run's summary.
type schedCostOutcome struct {
	mean, p95, p99 float64 // response time, ms
	settle         float64 // mean settle per request, ms
	service        float64 // mean device service per request, ms
}

// respProbe collects the measured response-time distribution, which
// Result.Response (a Welford accumulator) cannot report percentiles
// from.
type respProbe struct {
	d stats.Dist
}

func (r *respProbe) Observe(ev sim.ProbeEvent) {
	if ev.Kind == sim.EventComplete && ev.Measured {
		r.d.Add(ev.Req.ResponseTime())
	}
}

func (r *respProbe) ResetProbe() { r.d = stats.Dist{} }

func schedCostRun(job *runner.Job, dev schedCostDevice, schedName string, p Params) schedCostOutcome {
	s, err := sched.New(schedName)
	if err != nil {
		panic(err)
	}
	d := dev.mk()
	pc := sim.NewPhaseCollector()
	rp := &respProbe{}
	src := workload.DefaultRandom(dev.rate, d.SectorSize(), d.Capacity(), p.Requests, p.Seed)
	res := sim.Run(job.SimContext(), d, s, src,
		job.SimOptions(sim.Options{Warmup: p.Warmup, Probe: sim.MultiProbe{pc, rp}}))
	job.SimMs = res.Elapsed
	return schedCostOutcome{
		mean:    rp.d.Mean(),
		p95:     rp.d.P95(),
		p99:     rp.d.P99(),
		settle:  res.Phases.Settle.Mean(),
		service: res.Phases.Service.Mean(),
	}
}

// schedDegradedOutcome is one rebuild-regime run's summary under a
// given member-queue policy.
type schedDegradedOutcome struct {
	degradedP99   float64 // degraded-read response p99, ms
	degradedReads int
	foregroundP95 float64 // healthy-window foreground p95, ms
	mttrS         float64
}

// schedDegradedRun is the rebuild regime of xrebuild.go with the member
// scheduling policy under test: a MEMS parity member dies a quarter of
// the way through the arrival stream and the run measures the
// degraded-read tail while the rebuild competes for the member queues.
func schedDegradedRun(job *runner.Job, memberSched string, frac float64, p Params) schedDegradedOutcome {
	cfg := rebuildParityCfg()
	v, err := array.NewVolume(cfg)
	if err != nil {
		panic(err)
	}
	n := cfg.Devices()
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = newMEMS(1)
		s, err := sched.New(memberSched)
		if err != nil {
			panic(err)
		}
		scheds[i] = s
	}
	rate := 1000.0
	failMs := 0.25 * float64(p.Requests) / rate * 1000
	inj, err := fault.NewInjector(fault.InjectorConfig{
		DeviceEvents: []fault.DeviceEvent{{AtMs: failMs, Dev: p.FailDev % cfg.Members}},
	})
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
		RebuildChunk: int(cfg.StripeUnit), RebuildPolicy: sim.FixedRebuild{Frac: frac},
	}, src, job.SimOptions(sim.Options{Warmup: p.Warmup, Injector: inj}))
	if err != nil {
		panic(err)
	}
	job.SimMs = res.Elapsed
	vs := res.Volume
	return schedDegradedOutcome{
		degradedP99:   vs.ClassResponse[core.ClassDegradedRead].P99(),
		degradedReads: vs.DegradedReads,
		foregroundP95: vs.Healthy.P95(),
		mttrS:         vs.RebuildMs / 1000,
	}
}

// schedDegradedFracs are the rebuild-throttle operating points of the
// degraded-latency comparison.
var schedDegradedFracs = []float64{0.3, 1.0}

// schedDegradedScheds are the member-queue policies under comparison:
// the historical cost-only default versus the class-aware policy.
var schedDegradedScheds = []string{"SPTF", "Priority"}

func schedCostPlan(p Params) *Plan {
	devices := schedCostDevices()
	names := schedCostSchedulers(p)

	grid := make([][]*runner.Job, len(devices))
	var jobs []*runner.Job
	for di, dev := range devices {
		grid[di] = make([]*runner.Job, len(names))
		for si, name := range names {
			dev, name := dev, name
			j := &runner.Job{
				Label: fmt.Sprintf("schedcost %s %s", dev.name, name),
				Seed:  p.Seed,
			}
			j.Custom = func(job *runner.Job) any {
				out := schedCostRun(job, dev, name, p)
				if err := job.Ctx().Err(); err != nil {
					return err
				}
				return out
			}
			grid[di][si] = j
			jobs = append(jobs, j)
		}
	}

	degraded := make([][]*runner.Job, len(schedDegradedFracs))
	for fi, frac := range schedDegradedFracs {
		degraded[fi] = make([]*runner.Job, len(schedDegradedScheds))
		for si, name := range schedDegradedScheds {
			frac, name := frac, name
			j := &runner.Job{
				Label: fmt.Sprintf("schedcost degraded %s f=%g", name, frac),
				Seed:  p.Seed,
			}
			j.Custom = func(job *runner.Job) any {
				out := schedDegradedRun(job, name, frac, p)
				if err := job.Ctx().Err(); err != nil {
					return err
				}
				return out
			}
			degraded[fi][si] = j
			jobs = append(jobs, j)
		}
	}

	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			a := Table{
				ID:    "schedcost",
				Title: "cost-model scheduling: settle-aware SPTF vs. plain SPTF, random workload (util ≈ 0.8)",
				Columns: []string{"device", "scheduler", "mean(ms)", "p95(ms)", "p99(ms)",
					"settle(ms/req)", "service(ms/req)"},
			}
			for di, dev := range devices {
				for si, name := range names {
					o := grid[di][si].Value().(schedCostOutcome)
					a.AddRow(dev.name, name, ms(o.mean), ms(o.p95), ms(o.p99),
						ms(o.settle), ms(o.service))
				}
			}
			b := Table{
				ID:    "schedcost-degraded",
				Title: "degraded-read tail under rebuild, MEMS parity volume: class-aware Priority vs. SPTF member queues",
				Columns: []string{"throttle", "SPTF degr-p99(ms)", "Priority degr-p99(ms)",
					"SPTF fg-p95(ms)", "Priority fg-p95(ms)", "degr reads", "MTTR(s)"},
			}
			for fi, frac := range schedDegradedFracs {
				s := degraded[fi][0].Value().(schedDegradedOutcome)
				pr := degraded[fi][1].Value().(schedDegradedOutcome)
				b.AddRow(f2(frac), ms(s.degradedP99), ms(pr.degradedP99),
					ms(s.foregroundP95), ms(pr.foregroundP95),
					fmt.Sprintf("%d", s.degradedReads+pr.degradedReads), f2(pr.mttrS))
			}
			return []Table{a, b}
		},
	}
}
