package main

import (
	"fmt"
	"math"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

// regime selects the simulation entry point a workload drives.
type regime int

const (
	openRegime   regime = iota // sim.Run: one device, open arrivals, a scheduler queue
	closedRegime               // sim.RunClosed: one device, one request outstanding
	volumeRegime               // sim.RunVolume: rotated-parity volume with a hot spare
)

// spec is one benchmark workload. The zero values of sched and
// faultRate are the benchmark's settings; tests override them to cover
// other schedulers and the fault-injection paths.
type spec struct {
	name   string
	regime regime
	// rate is the open-loop arrival rate in requests per simulated
	// second (ignored by the closed regime, which issues back to back).
	rate  float64
	count int
	// sched names the scheduler (per member for the volume regime);
	// empty for the closed regime, which has no queue.
	sched string
	// faultRate is the injector's transient positioning-error rate.
	faultRate float64
}

// specs lists the workloads in the order "--workload all" runs them.
// README.md gives the reasons for each choice.
var specs = []spec{
	// Just below the SPTF knee: device estimates take most host time.
	{name: "mems-sptf-open", regime: openRegime, rate: 1400, count: 400000, sched: "SPTF"},
	// No scheduler and no physics: the engine, stats and disk model.
	{name: "disk-closed", regime: closedRegime, rate: 1400, count: 2000000},
	// Fork-join member ops, a member failure and an online rebuild.
	{name: "mems-parity-rebuild", regime: volumeRegime, rate: 1000, count: 500000, sched: "Priority"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// Volume geometry of the rebuild artifact: four rotated-parity members
// plus one hot spare, each member the full MEMS G1 sled (2500
// cylinder-sized rebuild chunks).
const (
	volPerMember = 6750000
	volChunk     = 2700
)

func volumeConfig() array.VolumeConfig {
	return array.VolumeConfig{
		Level: array.VolParity, Members: 4, Spares: 1,
		StripeUnit: volChunk, PerMember: volPerMember,
	}
}

// record is one generated request in 16 bytes. A run materializes it
// into a core.Request only on arrival, so the inputs of a two-million
// request workload take 32 MB rather than the several hundred a
// pre-built []*core.Request would hold.
type record struct {
	arrival float64
	lbn     uint32
	blocks  uint16
	op      uint8
}

// inputs is a workload's generated request stream.
type inputs struct {
	recs []record
	// failMs is when the volume regime kills member 0: the arrival time
	// of the request a quarter of the way through the stream.
	failMs float64
}

// capacity is the address space the workload's generator draws from.
func (s spec) capacity() (int64, error) {
	switch s.regime {
	case closedRegime:
		d, err := disk.NewDevice(disk.Atlas10K())
		if err != nil {
			return 0, err
		}
		return d.Capacity(), nil
	case volumeRegime:
		return volumeConfig().Capacity(), nil
	default:
		d, err := mems.NewDevice(mems.DefaultConfig())
		if err != nil {
			return 0, err
		}
		return d.Capacity(), nil
	}
}

// source returns the program's own generator for the workload: the
// paper's random mix, with the rebuild artifact's 32 KB size cap on the
// volume regime.
func (s spec) source(seed int64) (workload.Source, error) {
	capacity, err := s.capacity()
	if err != nil {
		return nil, err
	}
	cfg := workload.RandomConfig{
		Rate: s.rate, ReadFraction: 0.67, MeanBytes: 4096,
		SectorSize: 512, Capacity: capacity, Count: s.count, Seed: seed,
	}
	if s.regime == volumeRegime {
		cfg.MaxBytes = 32 * 1024
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return workload.NewRandom(cfg), nil
}

// generate drains the program's generator into compact records.
func (s spec) generate(seed int64) (*inputs, error) {
	src, err := s.source(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{recs: make([]record, 0, s.count)}
	for r := src.Next(); r != nil; r = src.Next() {
		if r.LBN+int64(r.Blocks) > math.MaxUint32 || r.Blocks > math.MaxUint16 {
			return nil, fmt.Errorf("%s: request [%d,+%d) does not fit a record", s.name, r.LBN, r.Blocks)
		}
		in.recs = append(in.recs, record{arrival: r.Arrival, lbn: uint32(r.LBN), blocks: uint16(r.Blocks), op: uint8(r.Op)})
	}
	in.failMs = in.recs[len(in.recs)/4].arrival
	return in, nil
}

// replay is the workload.Source a run reads: it turns records back
// into requests, reusing the requests of completed ones (release runs
// from Options.OnComplete), so the allocations a run makes are the
// simulator's own.
type replay struct {
	recs []record
	i    int
	free []*core.Request
}

// Next implements workload.Source.
func (s *replay) Next() *core.Request {
	if s.i == len(s.recs) {
		return nil
	}
	rec := &s.recs[s.i]
	s.i++
	var r *core.Request
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = new(core.Request)
	}
	*r = core.Request{Arrival: rec.arrival, Op: core.Op(rec.op), LBN: int64(rec.lbn), Blocks: int(rec.blocks)}
	return r
}

// release takes back a completed request for reuse.
func (s *replay) release(r *core.Request) { s.free = append(s.free, r) }

// rewind restarts the stream for the next run, keeping the free list.
func (s *replay) rewind() { s.i = 0 }

// system is the program's objects for one run, built by spec.build.
type system struct {
	spec      spec
	devs      []core.Device
	scheds    []core.Scheduler
	volume    *array.Volume
	injector  *fault.Injector
	collector *sim.PhaseCollector
}

// build constructs the program's objects: devices, schedulers, volume,
// injector and phase collector. This is what setup_s times.
func (s spec) build(in *inputs) (*system, error) {
	sys := &system{spec: s, collector: sim.NewPhaseCollector()}
	n := 1
	if s.regime == volumeRegime {
		v, err := array.NewVolume(volumeConfig())
		if err != nil {
			return nil, err
		}
		sys.volume = v
		n = volumeConfig().Devices()
	}
	for i := 0; i < n; i++ {
		var d core.Device
		var err error
		if s.regime == closedRegime {
			d, err = disk.NewDevice(disk.Atlas10K())
		} else {
			d, err = mems.NewDevice(mems.DefaultConfig())
		}
		if err != nil {
			return nil, err
		}
		sys.devs = append(sys.devs, d)
		if s.sched != "" {
			q, err := sched.New(s.sched)
			if err != nil {
				return nil, err
			}
			sys.scheds = append(sys.scheds, q)
		}
	}
	if s.regime == volumeRegime || s.faultRate > 0 {
		cfg := fault.DefaultInjectorConfig()
		cfg.Seed = 7
		cfg.TransientRate = s.faultRate
		if s.regime == volumeRegime {
			cfg.DeviceEvents = []fault.DeviceEvent{{AtMs: in.failMs, Dev: 0}}
		}
		inj, err := fault.NewInjector(cfg)
		if err != nil {
			return nil, err
		}
		sys.injector = inj
	}
	return sys, nil
}

// run simulates src on the system. A nil tracer runs the bare objects;
// otherwise devices, schedulers, source and collector are wrapped so
// the tracer times every call into them. onComplete observes each
// completed request (the replay source's release).
func (sys *system) run(src workload.Source, onComplete func(*core.Request), tr *tracer) (sim.Result, error) {
	devs, scheds := sys.devs, sys.scheds
	var probe sim.Probe = sys.collector
	if tr != nil {
		devs, scheds, src, probe = tr.wrap(devs, scheds, src, sys.collector)
	}
	opts := sim.Options{Probe: probe, Sketch: true, Injector: sys.injector, OnComplete: onComplete}
	switch sys.spec.regime {
	case openRegime:
		return sim.Run(nil, devs[0], scheds[0], src, opts), nil
	case closedRegime:
		return sim.RunClosed(nil, devs[0], src, opts), nil
	default:
		return sim.RunVolume(nil, sim.VolumeSpec{
			Volume: sys.volume, Devices: devs, Scheds: scheds,
			RebuildChunk: volChunk, RebuildPolicy: sim.AdaptiveRebuild{},
		}, src, opts)
	}
}
