package experiments

import (
	"fmt"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/mems"
	"memsim/internal/runner"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func init() { register("striping", stripingPlan) }

// StripingStudy (extension): the paper's TPC-C testbed striped its
// database across two drives — the standard way to scale a volume's
// throughput. The event-driven volume executor drives the random
// workload over striped MEMS volumes of 1, 2 and 4 sleds under SPTF;
// each member runs its own queue, so the volume's saturation rate scales
// with member count.
func StripingStudy(p Params) []Table { return mustRun(stripingPlan(p)) }

func stripingPlan(p Params) *Plan {
	rates := []float64{1000, 2000, 4000, 6000, 8000}
	counts := []int{1, 2, 4}
	grid := make([][]*runner.Job, len(rates))
	var jobs []*runner.Job
	for ri, rate := range rates {
		grid[ri] = make([]*runner.Job, len(counts))
		for ni, n := range counts {
			j := &runner.Job{
				Label: fmt.Sprintf("striping %d sleds rate=%g", n, rate),
				Seed:  p.Seed,
				Custom: func(job *runner.Job) any {
					mean := stripedResponse(job, n, rate, p)
					if err := job.Ctx().Err(); err != nil {
						return err
					}
					return mean
				},
			}
			grid[ri][ni] = j
			jobs = append(jobs, j)
		}
	}
	return &Plan{
		Jobs: jobs,
		Assemble: func() []Table {
			t := Table{
				ID:      "striping",
				Title:   "striped MEMS volume: mean response (ms) vs. arrival rate",
				Columns: []string{"rate(req/s)", "1 sled", "2 sleds", "4 sleds"},
			}
			for ri, rate := range rates {
				row := []string{f2(rate)}
				for ni := range counts {
					if mean := grid[ri][ni].Value().(float64); mean < 0 {
						row = append(row, "—")
					} else {
						row = append(row, ms(mean))
					}
				}
				t.AddRow(row...)
			}
			return []Table{t}
		},
	}
}

// stripedResponse simulates an n-sled stripe volume at the given rate
// and returns the mean response time, or −1 when the configuration is
// hopelessly saturated (mean response above 1 s).
func stripedResponse(job *runner.Job, n int, rate float64, p Params) float64 {
	devs := make([]core.Device, n)
	scheds := make([]core.Scheduler, n)
	for i := range devs {
		devs[i] = mems.MustDevice(mems.DefaultConfig())
		scheds[i] = sched.NewSPTF()
	}
	per := devs[0].Capacity()
	// The stripe unit is one cylinder; a request that crosses a strip
	// boundary is split into member operations and served in full.
	v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: n,
		StripeUnit: 2700, PerMember: per})
	if err != nil {
		// Recovered by the runner into a per-job error.
		panic(err)
	}
	cfg := workload.RandomConfig{
		Rate:         rate,
		ReadFraction: 0.67,
		MeanBytes:    4096,
		MaxBytes:     64 * 1024,
		SectorSize:   devs[0].SectorSize(),
		Capacity:     per * int64(n),
		Count:        p.Requests,
		Seed:         p.Seed,
	}
	res, err := sim.RunVolume(job.SimContext(), sim.VolumeSpec{Volume: v, Devices: devs, Scheds: scheds},
		workload.NewRandom(cfg), job.SimOptions(sim.Options{Warmup: p.Warmup}))
	if err != nil {
		panic(err)
	}
	mean := res.Response.Mean()
	if mean > 1000 {
		return -1
	}
	return mean
}
