package array

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
)

// golden_test.go pins Array.Access service times bit for bit. Each case
// runs a seeded request stream through a fresh four-member array, with
// every request issued when the previous one completes, and records the
// count, an FNV-64a hash of the result bits and the bits of their sum.
// Every request stays below the strip-aligned capacity, so the pinned
// times do not depend on how a member's unaligned tail is treated.
//
// Regenerate (after an INTENDED behavior change only) with:
//
//	go test ./internal/array -run TestArrayGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the Array.Access golden from the current code")

const goldenRequests = 3000

func TestArrayGolden(t *testing.T) {
	devices := []struct {
		name string
		mk   func() core.Device
	}{
		{"mems", func() core.Device { return mems.MustDevice(mems.DefaultConfig()) }},
		{"disk", func() core.Device { return disk.MustDevice(disk.Atlas10K()) }},
	}
	levels := []struct {
		name string
		cfg  Config
		data int64 // data members of the four
	}{
		{"raid0", Config{Level: VolStripe, StripeUnit: 8}, 4},
		{"raid5", Config{Level: VolParity, StripeUnit: 8}, 3},
	}
	kinds := []struct {
		name    string
		op      core.Op
		aligned bool
		fail    int
	}{
		{"read_aligned", core.Read, true, -1},
		{"write_aligned", core.Write, true, -1},
		{"read_unaligned", core.Read, false, -1},
		{"write_unaligned", core.Write, false, -1},
		{"read_aligned_fail0", core.Read, true, 0},
		{"read_unaligned_fail0", core.Read, false, 0},
		{"read_aligned_fail2", core.Read, true, 2},
		{"read_unaligned_fail2", core.Read, false, 2},
	}
	var out bytes.Buffer
	for _, d := range devices {
		for _, l := range levels {
			for ki, k := range kinds {
				if k.fail >= 0 && l.data == 4 {
					continue // a striped array has nothing to read degraded
				}
				members := make([]core.Device, 4)
				for i := range members {
					members[i] = d.mk()
				}
				a, err := New(l.cfg, members)
				if err != nil {
					t.Fatal(err)
				}
				if k.fail >= 0 {
					a.FailMember(k.fail)
				}
				const unit = 8
				limit := members[0].Capacity() / unit * unit * l.data
				rng := rand.New(rand.NewSource(int64(100 + ki)))
				h := fnv.New64a()
				now, sum := 0.0, 0.0
				for i := 0; i < goldenRequests; i++ {
					blocks := unit
					var lbn int64
					if k.aligned {
						lbn = rng.Int63n(limit/unit) * unit
					} else {
						blocks = unit + 1 + rng.Intn(3*unit) // spans two to five strips
						lbn = rng.Int63n(limit - int64(blocks) + 1)
					}
					svc := a.Access(&core.Request{Op: k.op, LBN: lbn, Blocks: blocks}, now)
					fmt.Fprintf(h, "%016x", math.Float64bits(svc))
					sum += svc
					now += svc
				}
				fmt.Fprintf(&out, "%s_%s_%s n=%d fnv=%016x sum=%016x (%.6f ms)\n",
					d.name, l.name, k.name, goldenRequests, h.Sum64(), math.Float64bits(sum), sum)
			}
		}
	}
	path := filepath.Join("testdata", "array_access.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden to capture): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("Array.Access diverged from golden\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}
