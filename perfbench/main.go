// Command perfbench is memsim's end-to-end benchmark: how many
// simulated requests the simulator completes per host-second on three
// workloads, with the simulated outcome checked exactly, and a traced
// run that times every call into each layer from outside the program.
// See README.md for the metrics and the workloads.
//
// Usage:
//
//	perfbench [--workload name|all] [--seed n] [--seconds s] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"memsim/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", goldenSeed, "seed the workload's requests are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for, per workload")
	trace := fs.Int("trace", 0, "1 makes traced runs and reports per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []spec
	if *name == "all" {
		todo = specs
	} else if s, ok := specByName(*name); ok {
		todo = []spec{s}
	} else {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, s := range todo {
		b := bench{spec: s, seed: *seed, seconds: *seconds}
		var ms map[string]metric
		var err error
		if *trace == 1 {
			ms, err = b.traced()
		} else {
			ms, err = b.untraced()
		}
		rep.Attempted += b.attempted
		rep.Failed += b.failed
		if err != nil {
			rep.Correct = false
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
			continue
		}
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "%-20s %-28s %14.6g %s\n", s.name, k, ms[k].Value, ms[k].Unit)
			if len(todo) > 1 {
				rep.Metrics[s.name+"."+k] = ms[k]
			} else {
				rep.Metrics[k] = ms[k]
			}
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench measures one workload.
type bench struct {
	spec    spec
	seed    int64
	seconds float64

	in  *inputs
	src *replay
	// want is the warm-up run's fingerprint, once warm is set.
	want fingerprint
	warm bool

	attempted, failed int
}

// Set-up takes microseconds and the host's speed drifts over seconds,
// so untraced runs time it in batches of setupBatch builds, setupRounds
// batches before every measured run; setup_s is the median batch mean.
const (
	setupRounds = 8
	setupBatch  = 64
)

// prepare generates the inputs and makes the warm-up run, whose
// outcome every later run must reproduce. At goldenSeed it must also
// match the pinned fingerprint.
func (b *bench) prepare() error {
	in, err := b.spec.generate(b.seed)
	if err != nil {
		return err
	}
	b.in, b.src = in, &replay{recs: in.recs}
	runtime.GC()
	sys, err := b.spec.build(b.in)
	if err != nil {
		return err
	}
	res, _, err := b.simulate(sys, nil)
	if err != nil {
		return err
	}
	b.want, b.warm = fingerprintOf(&res), true
	if b.seed != goldenSeed {
		return nil
	}
	pinned, ok, err := goldenFingerprint(b.spec.name)
	switch {
	case err != nil:
		return err
	case !ok:
		return fmt.Errorf("no pinned fingerprint; got %v", b.want)
	case pinned != b.want:
		return fmt.Errorf("fingerprint differs from the pinned one\n got  %v\n want %v", b.want, pinned)
	}
	return nil
}

// simulate makes one checked run on sys and returns its result and host
// seconds. A panic, a failed check or an outcome that differs from the
// warm-up run's is an error and counts as a failed operation.
func (b *bench) simulate(sys *system, tr *tracer) (res sim.Result, wall float64, err error) {
	b.attempted++
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			b.failed++
		}
	}()
	b.src.rewind()
	if tr != nil {
		tr.startRun()
	}
	t0 := time.Now()
	res, err = sys.run(b.src, b.src.release, tr)
	wall = time.Since(t0).Seconds()
	if err != nil {
		return res, 0, err
	}
	if err := b.spec.check(&res); err != nil {
		return res, 0, err
	}
	if b.warm {
		if got := fingerprintOf(&res); got != b.want {
			return res, 0, fmt.Errorf("run %d differs from the warm-up run\n got  %v\n want %v", b.attempted, got, b.want)
		}
	}
	return res, wall, nil
}

// untraced measures the end-to-end metrics: set-up time, simulated
// requests per host-second, and the live heap a run leaves behind.
func (b *bench) untraced() (map[string]metric, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	var setups, rates, heaps []float64
	for measured := 0.0; measured < b.seconds || len(rates) < 3; {
		for i := 0; i < setupRounds; i++ {
			t0 := time.Now()
			for j := 0; j < setupBatch; j++ {
				if _, err := b.spec.build(b.in); err != nil {
					return nil, err
				}
			}
			setups = append(setups, time.Since(t0).Seconds()/setupBatch)
		}
		m, err := b.measure()
		if err != nil {
			return nil, err
		}
		measured += m.wall
		rates = append(rates, float64(b.spec.count)/m.wall)
		heaps = append(heaps, m.heap)
	}
	return map[string]metric{
		"sim_req_per_s": {median(rates), "1/s"},
		"setup_s":       {median(setups), "s"},
		"heap_mb":       {median(heaps) / 1e6, "MB"},
	}, nil
}

// plainRun is what one untraced run measured.
type plainRun struct {
	wall   float64 // host seconds
	allocs float64 // heap allocations during the run
	bytes  float64 // bytes allocated during the run
	heap   float64 // live bytes the built system and its result hold after the run
}

// measure builds a system and makes one untraced run on it. The heap
// figure is the live heap after the run, with the system and the
// result reachable, less the live heap before the build; the inputs
// and the replay source's recycled requests are live in both, so they
// cancel out.
func (b *bench) measure() (plainRun, error) {
	var base, m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	sys, err := b.spec.build(b.in)
	if err != nil {
		return plainRun{}, err
	}
	runtime.ReadMemStats(&m0)
	res, wall, err := b.simulate(sys, nil)
	if err != nil {
		return plainRun{}, err
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(&res)
	return plainRun{
		wall:   wall,
		allocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:  float64(m1.TotalAlloc - m0.TotalAlloc),
		heap:   float64(m2.HeapAlloc) - float64(base.HeapAlloc),
	}, nil
}

// traced alternates untraced and traced runs and attributes the traced
// runs' host time to the layers.
func (b *bench) traced() (map[string]metric, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	tr := &tracer{}
	var plain []plainRun
	var traced []float64
	for measured := 0.0; measured < b.seconds || len(traced) < 2; {
		m, err := b.measure()
		if err != nil {
			return nil, err
		}
		plain = append(plain, m)
		sys, err := b.spec.build(b.in)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		_, wall, err := b.simulate(sys, tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, wall)
		measured += m.wall + wall
	}
	return b.layers(tr, plain, traced)
}

// layers turns the tracer's totals into the per-layer metrics. Device,
// scheduler, stats and source times are disjoint: device calls nested
// in a scheduler's Next are charged to the device only. The engine's
// share is what remains of the traced wall time, the tracer's own
// bookkeeping included.
func (b *bench) layers(tr *tracer, plain []plainRun, traced []float64) (map[string]metric, error) {
	var wallNs float64
	for _, w := range traced {
		wallNs += w * 1e9
	}
	reqs := float64(b.spec.count * len(traced))
	device := float64(tr.access.ns + tr.estimate.ns + tr.penalty.ns)
	schedNs := float64(tr.next.ns + tr.add.ns)
	stats := float64(tr.observe.ns)
	source := float64(tr.source.ns)
	engine := wallNs - device - schedNs - stats - source
	if engine < 0 {
		return nil, fmt.Errorf("layer times exceed the traced wall time by %.0f ns", -engine)
	}
	xseek, distinct, err := tr.physics()
	if err != nil {
		return nil, err
	}
	perNext := func(x int64) float64 {
		if tr.next.calls == 0 {
			return 0
		}
		return float64(x) / float64(tr.next.calls)
	}

	m := map[string]metric{}
	// Both device families are always reported; the one the workload
	// does not use reads zero.
	for _, dev := range []string{"mems", "disk"} {
		on := (dev == "disk") == (b.spec.regime == closedRegime)
		v := func(x float64) float64 {
			if on {
				return x
			}
			return 0
		}
		m[dev+".access_ns"] = metric{v(tr.access.mean()), "ns"}
		m[dev+".estimate_ns"] = metric{v(tr.estimate.mean()), "ns"}
		m[dev+".calls_per_req"] = metric{v(float64(tr.access.calls+tr.estimate.calls) / reqs), "count"}
		m[dev+".share"] = metric{v(device / wallNs), "fraction"}
	}
	m["physics.xseek_ns"] = metric{xseek, "ns"}
	m["physics.xseeks_per_req"] = metric{float64(len(tr.pairs)) / float64(b.spec.count), "count"}
	m["physics.xpair_distinct_frac"] = metric{distinct, "fraction"}
	m["sched.next_self_ns"] = metric{tr.next.mean(), "ns"}
	m["sched.next_p99_ns"] = metric{tr.nextP99(), "ns"}
	m["sched.estimates_per_next"] = metric{perNext(tr.nextEstimate), "count"}
	m["sched.depth_mean"] = metric{perNext(tr.depth), "count"}
	m["sched.add_ns"] = metric{tr.add.mean(), "ns"}
	m["sched.share"] = metric{schedNs / wallNs, "fraction"}
	m["stats.observe_ns"] = metric{tr.observe.mean(), "ns"}
	m["stats.events_per_req"] = metric{float64(tr.observe.calls) / reqs, "count"}
	m["stats.share"] = metric{stats / wallNs, "fraction"}
	m["source.next_ns"] = metric{tr.source.mean(), "ns"}
	m["source.share"] = metric{source / wallNs, "fraction"}
	m["sim.self_ns_per_req"] = metric{engine / reqs, "ns"}
	m["sim.share"] = metric{engine / wallNs, "fraction"}
	n := float64(b.spec.count)
	var walls, allocs, bytes []float64
	for _, p := range plain {
		walls = append(walls, p.wall)
		allocs = append(allocs, p.allocs/n)
		bytes = append(bytes, p.bytes/n)
	}
	m["allocs_per_req"] = metric{median(allocs), "count"}
	m["alloc_bytes_per_req"] = metric{median(bytes), "B"}
	m["trace.overhead_frac"] = metric{median(traced)/median(walls) - 1, "fraction"}
	m["trace.timer_pair_ns"] = metric{timerPairNs(), "ns"}
	return m, nil
}

// median returns the median of xs (NaN for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
