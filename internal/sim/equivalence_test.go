// equivalence_test.go is the engine and scheduler golden contract:
// seeded runs across every regime (open, closed, multi, volume), both
// device models, every scheduling policy (the paper's four, the
// cost-model extensions SettleAware, Priority and ASPTF, and the indexed
// SPTF_IDX and SettleAware_IDX), with and without fault injection and
// with the bounded percentile sketch, fingerprinted in full float
// precision (every Result field plus a hash of the JSONL lifecycle
// trace) and compared byte-for-byte against committed goldens. Any
// engine or scheduler change that shifts a single completion time,
// probe event, or counter fails here first.
//
// Regenerate goldens (after an INTENDED behavior change only) with:
//
//	go test ./internal/sim -run TestEquivalence -update-golden
package sim_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"memsim/internal/array"
	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/fault"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/stats"
	"memsim/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite equivalence goldens from the current engine")

// g formats a float at full round-trip precision so the fingerprint is
// sensitive to the last bit of every statistic.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func dumpWelford(b *strings.Builder, name string, w stats.Welford) {
	fmt.Fprintf(b, "%s: n=%d mean=%s min=%s max=%s var=%s\n",
		name, w.N(), g(w.Mean()), g(w.Min()), g(w.Max()), g(w.Variance()))
}

func dumpDist(b *strings.Builder, name string, d *stats.Dist) {
	fmt.Fprintf(b, "%s: n=%d mean=%s p95=%s p99=%s\n",
		name, d.N(), g(d.Mean()), g(d.P95()), g(d.P99()))
}

func dumpPhases(b *strings.Builder, name string, ps *sim.PhaseStats) {
	if ps == nil {
		fmt.Fprintf(b, "%s: nil\n", name)
		return
	}
	fmt.Fprintf(b, "%s: requests=%d\n", name, ps.Requests)
	for _, ph := range []struct {
		n string
		d *stats.Dist
	}{
		{"seek", &ps.Seek}, {"settle", &ps.Settle}, {"turnaround", &ps.Turnaround},
		{"transfer", &ps.Transfer}, {"overhead", &ps.Overhead}, {"recovery", &ps.Recovery},
		{"positioning", &ps.Positioning}, {"service", &ps.Service}, {"unattributed", &ps.Unattributed},
	} {
		dumpDist(b, name+"."+ph.n, ph.d)
	}
}

// fingerprint renders every observable field of a Result, plus the
// byte hash of the run's JSONL lifecycle trace, as deterministic text.
func fingerprint(res sim.Result, runErr error, trace []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err: %v\n", runErr)
	fmt.Fprintf(&b, "requests: %d\n", res.Requests)
	dumpWelford(&b, "response", res.Response)
	dumpWelford(&b, "service", res.Service)
	dumpWelford(&b, "queuelen", res.QueueLen)
	fmt.Fprintf(&b, "maxqueue: %d\n", res.MaxQueue)
	fmt.Fprintf(&b, "busy: %s\n", g(res.Busy))
	fmt.Fprintf(&b, "elapsed: %s\n", g(res.Elapsed))
	fmt.Fprintf(&b, "utilization: %s\n", g(res.Utilization()))
	fmt.Fprintf(&b, "retries: %d recovered: %d failed: %d degraded: %d requeues: %d\n",
		res.Retries, res.Recovered, res.FailedRequests, res.DegradedReads, res.Requeues)
	fmt.Fprintf(&b, "recoveryms: %s\n", g(res.RecoveryMs))
	fmt.Fprintf(&b, "lostreads: %d dataloss: %v\n", res.LostReads, res.DataLoss)
	dumpPhases(&b, "phases", res.Phases)
	fmt.Fprintf(&b, "members: %d\n", len(res.Members))
	for i, m := range res.Members {
		fmt.Fprintf(&b, "member[%d]: requests=%d busy=%s\n", i, m.Requests, g(m.Busy))
		dumpPhases(&b, fmt.Sprintf("member[%d].phases", i), m.Phases)
	}
	if v := res.Volume; v != nil {
		fmt.Fprintf(&b, "volume: failures=%d rebuilds=%d/%d chunks=%d\n",
			v.DeviceFailures, v.RebuildsStarted, v.RebuildsDone, v.RebuildChunks)
		fmt.Fprintf(&b, "volume.rebuildms: %s degradedms: %s rebuildbusy: %s\n",
			g(v.RebuildMs), g(v.DegradedMs), g(v.RebuildBusy))
		fmt.Fprintf(&b, "volume.counts: dr=%d dw=%d sr=%d lost=%d\n",
			v.DegradedReads, v.DegradedWrites, v.SpareReads, v.LostRequests)
		dumpDist(&b, "volume.healthy", &v.Healthy)
		dumpDist(&b, "volume.degraded", &v.Degraded)
	} else {
		fmt.Fprintf(&b, "volume: nil\n")
	}
	fmt.Fprintf(&b, "trace: lines=%d sha256=%x\n", bytes.Count(trace, []byte("\n")), sha256.Sum256(trace))
	return b.String()
}

// scenario is one fingerprinted run. Every scenario is executed twice —
// once bare and once under a probe stack (PhaseCollector + JSONL trace)
// — and both fingerprints land in the golden, so probe-neutrality of
// the Result is part of the contract.
type scenario struct {
	name string
	run  func(opts sim.Options) (sim.Result, error)
	// inj builds a fresh injector per execution (injectors are stateful);
	// nil runs without one.
	inj func(t *testing.T) *fault.Injector
	// sketch runs with Options.Sketch, the bounded percentile backend.
	sketch bool
}

func newMEMS(t *testing.T) *mems.Device {
	t.Helper()
	d, err := mems.NewDevice(mems.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newDisk(t *testing.T) *disk.Device {
	t.Helper()
	d, err := disk.NewDevice(disk.Atlas10K())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newSched(t *testing.T, name string) core.Scheduler {
	t.Helper()
	s, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// transientInjector is the §6.1.3 retry scenario: transient errors at a
// visible rate plus, for MEMS, scheduled tip failures degrading stripes
// mid-run (ECC surcharges, lost reads).
func transientInjector(t *testing.T, geo *mems.Geometry) *fault.Injector {
	t.Helper()
	cfg := fault.DefaultInjectorConfig()
	cfg.TransientRate = 0.05
	cfg.Seed = 99
	if geo != nil {
		arr := fault.DefaultConfig()
		cfg.Array = &arr
		cfg.SectorTips = geo.TipsForSector
		cfg.Events = []fault.TipEvent{
			{AtMs: 50, Tip: 3},
			{AtMs: 120, Tip: 67, Defect: true},
			{AtMs: 200, Tip: 131},
		}
	}
	inj, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func equivalenceScenarios(t *testing.T) []scenario {
	t.Helper()
	const (
		requests = 400
		seed     = 7
	)
	var scns []scenario

	// ── Open arrivals, single device ────────────────────────────────
	for _, dev := range []string{"mems", "disk"} {
		for _, sc := range []string{"FCFS", "SPTF"} {
			dev, sc := dev, sc
			mk := func(t *testing.T) core.Device {
				if dev == "mems" {
					return newMEMS(t)
				}
				return newDisk(t)
			}
			rate := 900.0
			if dev == "disk" {
				rate = 90
			}
			run := func(opts sim.Options) (sim.Result, error) {
				d := mk(t)
				src := workload.DefaultRandom(rate, d.SectorSize(), d.Capacity(), requests, seed)
				return sim.Run(nil, d, newSched(t, sc), src, opts), nil
			}
			scns = append(scns, scenario{name: "open_" + dev + "_" + sc, run: run})
			scns = append(scns, scenario{
				name: "open_" + dev + "_" + sc + "_inj",
				run:  run,
				inj: func(t *testing.T) *fault.Injector {
					if dev == "mems" {
						geo := newMEMS(t).Geometry()
						return transientInjector(t, geo)
					}
					return transientInjector(t, nil)
				},
			})
		}
	}

	// ── Open MEMS past the knee, one run per remaining policy ───────
	// At 2000 req/s the queue grows past 2·DefaultIndexWindow, so the
	// indexed variants part from the full scan, and requests wait long
	// enough for ASPTF's aging and Priority's 50 ms promotion to act.
	for _, name := range []string{"SSTF_LBN", "C-LOOK", "SettleAware", "SPTF_IDX", "SettleAware_IDX", "Priority", "ASPTF_0.05"} {
		name := name
		scns = append(scns, scenario{
			name: "open_mems_2000_" + name,
			run: func(opts sim.Options) (sim.Result, error) {
				d := newMEMS(t)
				var s core.Scheduler = sched.NewASPTF(0.05)
				if name != "ASPTF_0.05" {
					s = newSched(t, name)
				}
				src := workload.DefaultRandom(2000, d.SectorSize(), d.Capacity(), requests, seed)
				return sim.Run(nil, d, s, src, opts), nil
			},
		})
	}

	// ── Closed, back-to-back ────────────────────────────────────────
	for _, dev := range []string{"mems", "disk"} {
		dev := dev
		run := func(opts sim.Options) (sim.Result, error) {
			var d core.Device
			if dev == "mems" {
				d = newMEMS(t)
			} else {
				d = newDisk(t)
			}
			// The §5.3 regime: bipartite sizes under the simple layout.
			cfg := workload.RandomConfig{
				Rate: 1, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 64 * 1024,
				SectorSize: d.SectorSize(), Capacity: d.Capacity(), Count: requests, Seed: seed,
			}
			return sim.RunClosed(nil, d, workload.NewRandom(cfg), opts), nil
		}
		scns = append(scns, scenario{name: "closed_" + dev, run: run})
		scns = append(scns, scenario{
			name: "closed_" + dev + "_inj",
			run:  run,
			inj: func(t *testing.T) *fault.Injector {
				if dev == "mems" {
					return transientInjector(t, newMEMS(t).Geometry())
				}
				return transientInjector(t, nil)
			},
		})
	}

	// ── Multi-device stripe volumes ─────────────────────────────────
	// unit 0 concatenates the members (a stripe unit of a whole member).
	multi := func(devName string, n int, schedName string, unit int64, spill bool) func(opts sim.Options) (sim.Result, error) {
		return func(opts sim.Options) (sim.Result, error) {
			devs := make([]core.Device, n)
			scheds := make([]core.Scheduler, n)
			for i := range devs {
				if devName == "mems" {
					devs[i] = newMEMS(t)
				} else {
					devs[i] = newDisk(t)
				}
				scheds[i] = newSched(t, schedName)
			}
			per := devs[0].Capacity()
			rate := 1600.0
			if devName == "disk" {
				rate = 160
			}
			meanBytes := 4096.0
			if spill {
				// Large requests that regularly straddle a strip
				// boundary, exercising the fork-join split.
				meanBytes = 512 * 1024
				rate /= 64
			}
			cfg := workload.RandomConfig{
				Rate: rate, ReadFraction: 0.67, MeanBytes: meanBytes, MaxBytes: 16 * 1024 * meanBytes / 4096,
				SectorSize: devs[0].SectorSize(), Capacity: per * int64(n),
				Count: requests, Seed: seed,
			}
			if unit == 0 {
				unit = per
			}
			v, err := array.NewVolume(array.VolumeConfig{Level: array.VolStripe, Members: n,
				StripeUnit: unit, PerMember: per})
			if err != nil {
				return sim.Result{}, err
			}
			return sim.RunVolume(nil, sim.VolumeSpec{Volume: v, Devices: devs, Scheds: scheds},
				workload.NewRandom(cfg), opts)
		}
	}
	scns = append(scns,
		scenario{name: "multi_mems_stripe_SPTF", run: multi("mems", 2, "SPTF", 2700, false)},
		scenario{name: "multi_mems_stripe_SPTF_spill", run: multi("mems", 2, "SPTF", 2700, true)},
		scenario{name: "multi_disk_concat_FCFS", run: multi("disk", 2, "FCFS", 0, false)},
		// The bounded percentile backend, run-level and per member.
		scenario{name: "multi_mems_stripe_SPTF_sketch", sketch: true, run: multi("mems", 2, "SPTF", 2700, false)},
	)

	// ── Redundant volumes (fork-join + failover + rebuild) ──────────
	// faults adds transient errors at a rate that requeues member ops
	// and fails a few outright, on top of the device failure.
	volume := func(level array.VolumeLevel, members, spares int, fail, faults bool, policy sim.RebuildPolicy, memberSched string) scenario {
		name := "volume_mirror"
		if level == array.VolParity {
			name = "volume_parity"
		}
		if fail {
			name += "_fail"
		}
		if faults {
			name += "_faults"
		}
		if policy != nil {
			name += "_" + policy.Name()
		}
		if memberSched != "SPTF" {
			name += "_" + memberSched
		}
		pace := policy
		if pace == nil {
			pace = sim.FixedRebuild{Frac: 0.5}
		}
		run := func(opts sim.Options) (sim.Result, error) {
			cfg := array.VolumeConfig{
				Level: level, Members: members, Spares: spares,
				StripeUnit: 540, PerMember: 54000,
			}
			v, err := array.NewVolume(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := cfg.Devices()
			devs := make([]core.Device, n)
			scheds := make([]core.Scheduler, n)
			for i := range devs {
				devs[i] = newMEMS(t)
				scheds[i] = newSched(t, memberSched)
			}
			src := workload.NewRandom(workload.RandomConfig{
				Rate: 900, ReadFraction: 0.67, MeanBytes: 4096, MaxBytes: 16 * 1024,
				SectorSize: devs[0].SectorSize(), Capacity: cfg.Capacity(),
				Count: requests, Seed: seed,
			})
			return sim.RunVolume(nil, sim.VolumeSpec{
				Volume: v, Devices: devs, Scheds: scheds,
				RebuildChunk: 2700, RebuildPolicy: pace,
			}, src, opts)
		}
		scn := scenario{name: name, run: run}
		if fail {
			scn.inj = func(t *testing.T) *fault.Injector {
				cfg := fault.InjectorConfig{
					Seed:         41,
					DeviceEvents: []fault.DeviceEvent{{AtMs: 80, Dev: 1}},
				}
				if faults {
					cfg = fault.DefaultInjectorConfig()
					cfg.Seed = 41
					cfg.DeviceEvents = []fault.DeviceEvent{{AtMs: 80, Dev: 1}}
					cfg.TransientRate = 0.3
					cfg.MaxRetries = 1
				}
				inj, err := fault.NewInjector(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return inj
			}
		}
		return scn
	}
	scns = append(scns,
		volume(array.VolMirror, 2, 1, false, false, nil, "SPTF"),
		volume(array.VolMirror, 2, 1, true, false, nil, "SPTF"),
		volume(array.VolParity, 3, 1, true, false, nil, "SPTF"),
		// Queue-aware pacing under the same failure: pins the adaptive
		// policy's trajectory (pace changes shift chunk timing and the
		// trace) without touching the fixed-policy goldens above.
		volume(array.VolParity, 3, 1, true, false, sim.AdaptiveRebuild{}, "SPTF"),
		// Class-aware member queues: degraded reads, foreground and
		// rebuild chunks in separate bands.
		volume(array.VolParity, 3, 1, true, false, sim.AdaptiveRebuild{}, "Priority"),
		// Requeued and failed member ops under FIFO member queues: the
		// ops a member-request pool must not recycle while they are
		// queued or in service.
		volume(array.VolParity, 3, 1, true, true, nil, "FCFS"),
	)
	return scns
}

// TestEquivalence locks the engine and schedulers to the goldens: for each
// scenario the bare and probed fingerprints must match the committed
// golden byte-for-byte.
func TestEquivalence(t *testing.T) {
	const warmup = 40
	for _, scn := range equivalenceScenarios(t) {
		scn := scn
		t.Run(scn.name, func(t *testing.T) {
			execute := func(probed bool) string {
				opts := sim.Options{Warmup: warmup, Sketch: scn.sketch}
				if scn.inj != nil {
					opts.Injector = scn.inj(t)
				}
				var trace bytes.Buffer
				var jp *sim.JSONLProbe
				if probed {
					jp = sim.NewJSONLProbe(&trace)
					opts.Probe = sim.MultiProbe{sim.NewPhaseCollector(), jp}
				}
				res, err := scn.run(opts)
				if jp != nil {
					if ferr := jp.Flush(); ferr != nil {
						t.Fatal(ferr)
					}
				}
				return fingerprint(res, err, trace.Bytes())
			}
			got := "── bare ──\n" + execute(false) + "── probed ──\n" + execute(true)

			path := filepath.Join("testdata", "equivalence", scn.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
			}
			if got != string(want) {
				t.Errorf("fingerprint diverged from golden\n--- got ---\n%s--- want ---\n%s",
					got, want)
			}
		})
	}
}
