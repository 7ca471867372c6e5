package sim

import (
	"fmt"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/workload"
)

// benchRequests builds a deterministic random request slice against dev.
func benchRequests(dev core.Device, n int) []*core.Request {
	src := workload.DefaultRandom(1000, dev.SectorSize(), dev.Capacity(), n, 1)
	return workload.Slice(src)
}

// BenchmarkMEMSAccess times the MEMS device's Access hot path — sled
// seek, settle attribution and per-segment transfer — which every
// simulated request pays at least once.
func BenchmarkMEMSAccess(b *testing.B) {
	d := mems.MustDevice(mems.DefaultConfig())
	reqs := benchRequests(d, 4096)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += d.Access(reqs[i%len(reqs)], now)
	}
}

// BenchmarkDiskAccess times the disk model's Access hot path: seek
// curve, rotational position and zoned transfer.
func BenchmarkDiskAccess(b *testing.B) {
	d := disk.MustDevice(disk.Atlas10K())
	reqs := benchRequests(d, 4096)
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += d.Access(reqs[i%len(reqs)], now)
	}
}

// discardProbe is the cheapest possible observer; it isolates the
// event-emission overhead from any probe-side work.
type discardProbe struct{}

func (discardProbe) Observe(ProbeEvent) {}

// benchRun drives one open-arrival run per iteration; the probe
// variants quantify the instrumentation's cost against the nil-probe
// baseline the byte-identity test guards.
func benchRun(b *testing.B, p Probe) {
	d := mems.MustDevice(mems.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := workload.DefaultRandom(1100, 512, d.Capacity(), 2000, 1)
		Run(nil, d, sched.NewSPTF(), src, Options{Warmup: 100, Probe: p})
	}
}

func BenchmarkRunNilProbe(b *testing.B)   { benchRun(b, nil) }
func BenchmarkRunDiscard(b *testing.B)    { benchRun(b, discardProbe{}) }
func BenchmarkRunPhaseStats(b *testing.B) { benchRun(b, NewPhaseCollector()) }

// BenchmarkPhaseCollector isolates the probe-side aggregation path —
// PhaseStats.add through Observe — from the simulation driving it, in
// both percentile backends. Run with -benchmem: the exact backend's
// bytes/op is dominated by retained-sample growth, the sketch's by
// nothing (its buckets saturate immediately).
func BenchmarkPhaseCollector(b *testing.B) {
	ev := ProbeEvent{Kind: EventComplete, Measured: true, Req: &core.Request{
		Phases: core.Breakdown{Seek: 0.4, Settle: 0.2, Transfer: 0.1, ServiceMs: 0.7},
	}}
	for _, mode := range []string{"exact", "sketch"} {
		b.Run(mode, func(b *testing.B) {
			c := NewPhaseCollector()
			if mode == "sketch" {
				c.UseSketch()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Observe(ev)
			}
		})
	}
}

// BenchmarkEngineMillion is the harness's end-to-end scale probe: one
// full high-volume run per iteration in each regime, sketch-backed so
// stats memory stays O(1) (run with -benchtime=1x; -short drops the
// request count tenfold, which also changes the subbench name so
// cross-scale numbers are never compared).
func BenchmarkEngineMillion(b *testing.B) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	b.Run(fmtScale("open", n), func(b *testing.B) {
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
			Run(nil, d, sched.NewSPTF(), src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector(), Sketch: true})
		}
	})
	b.Run(fmtScale("closed", n), func(b *testing.B) {
		d := mems.MustDevice(mems.DefaultConfig())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src := workload.DefaultRandom(1100, 512, d.Capacity(), n, 1)
			RunClosed(nil, d, src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector(), Sketch: true})
		}
	})
	b.Run(fmtScale("multi", n), func(b *testing.B) {
		const members = 4
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			devs := make([]core.Device, members)
			scheds := make([]core.Scheduler, members)
			for j := range devs {
				devs[j] = mems.MustDevice(mems.DefaultConfig())
				scheds[j] = sched.NewSPTF()
			}
			perDev := devs[0].Capacity()
			src := workload.DefaultRandom(1100, 512, perDev*members, n, 1)
			mustStripe(b, nil, devs, scheds, perDev, perDev, src,
				Options{Warmup: n / 100, Probe: NewPhaseCollector(), Sketch: true})
		}
	})
}

func fmtScale(regime string, n int) string {
	return fmt.Sprintf("%s/n=%d", regime, n)
}
