package main

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"memsim/internal/sim"
)

// small returns s cut down to n requests, with the scheduler and
// transient fault rate overridden when given.
func small(s spec, n int, sched string, faultRate float64) spec {
	s.count = n
	if sched != "" {
		s.sched = sched
	}
	s.faultRate = faultRate
	return s
}

func mustSpec(t *testing.T, name string) spec {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return s
}

// TestHarnessMatchesProgram checks that everything the benchmark puts
// between the program and its inputs leaves the simulated result
// unchanged: compact records replayed through a source that recycles
// completed requests, and the tracer's device, scheduler, source and
// probe wrappers. The reference is the program's own generator feeding
// the bare objects. The traced system runs twice, so the second run
// also shows that the engine still resets the bracketed collector.
//
// Besides the three workloads, the cases cover SettleAware (which asks
// the device for an estimated breakdown) and FCFS (which implements
// Requeue), and transient fault injection, which drives the retry,
// recovery-penalty and requeue paths through the wrappers.
func TestHarnessMatchesProgram(t *testing.T) {
	const n = 4000
	open, closed, volume := mustSpec(t, "mems-sptf-open"), mustSpec(t, "disk-closed"), mustSpec(t, "mems-parity-rebuild")
	cases := []struct {
		name   string
		spec   spec
		faults bool
	}{
		{"mems-sptf-open", small(open, n, "", 0), false},
		{"disk-closed", small(closed, n, "", 0), false},
		{"mems-parity-rebuild", small(volume, n, "", 0), false},
		{"open-settleaware", small(open, n, "SettleAware", 0), false},
		{"open-sptf-faults", small(open, n, "", 0.2), true},
		{"open-fcfs-faults", small(open, n, "FCFS", 0.2), true},
		{"closed-faults", small(closed, n, "", 0.2), true},
		{"volume-faults", small(volume, n, "", 0.3), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const seed = 3
			in, err := c.spec.generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			plainSys, err := c.spec.build(in)
			if err != nil {
				t.Fatal(err)
			}
			src, err := c.spec.source(seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plainSys.run(src, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if c.faults && (want.Retries == 0 || want.Requeues == 0) {
				t.Fatalf("fault paths not exercised: %d retries, %d requeues", want.Retries, want.Requeues)
			}

			sys, err := c.spec.build(in)
			if err != nil {
				t.Fatal(err)
			}
			rp := &replay{recs: in.recs}
			tr := &tracer{}
			var got sim.Result
			for i := 0; i < 2; i++ {
				rp.rewind()
				tr.startRun()
				if got, err = sys.run(rp, rp.release, tr); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("traced replay differs from the program's own run\n got  %v\n want %v",
					fingerprintOf(&got), fingerprintOf(&want))
			}
			if tr.access.calls == 0 || tr.observe.calls == 0 || tr.source.calls == 0 {
				t.Fatalf("tracer saw no calls: %+v", tr)
			}
		})
	}
}

// TestLayersAddUp checks the traced attribution on a small run: the
// layer shares and the engine's remainder add up to the traced wall
// time, and the remainder is not negative.
func TestLayersAddUp(t *testing.T) {
	for _, name := range []string{"mems-sptf-open", "disk-closed", "mems-parity-rebuild"} {
		b := bench{spec: small(mustSpec(t, name), 4000, "", 0), seed: 5, seconds: 0.01}
		m, err := b.traced()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := 0.0
		for _, k := range []string{"mems.share", "disk.share", "sched.share", "stats.share", "source.share", "sim.share"} {
			sum += m[k].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares add up to %v", name, sum)
		}
		if m["sim.self_ns_per_req"].Value < 0 {
			t.Errorf("%s: negative engine self time", name)
		}
		if b.failed != 0 || b.attempted < 5 {
			t.Errorf("%s: %d of %d runs failed", name, b.failed, b.attempted)
		}
	}
}

// TestPinnedFingerprintMismatchFails checks that a warm-up run whose
// outcome differs from the pinned one makes the workload incorrect.
func TestPinnedFingerprintMismatchFails(t *testing.T) {
	b := bench{spec: small(mustSpec(t, "disk-closed"), 1000, "", 0), seed: goldenSeed}
	if err := b.prepare(); err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("prepare = %v, want a pinned-fingerprint mismatch", err)
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "mems-sptf-open") {
		t.Fatalf("stdout %q stderr %q", out.String(), errOut.String())
	}
}
