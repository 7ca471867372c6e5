package memsim_test

import (
	"fmt"
	"math/rand"

	"memsim"
)

// ExampleSimulate runs the paper's random workload over the Table 1
// device under SPTF scheduling — the minimal end-to-end use of the
// library.
func ExampleSimulate() {
	dev, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
	if err != nil {
		panic(err)
	}
	s, err := memsim.NewScheduler("SPTF")
	if err != nil {
		panic(err)
	}
	src := memsim.NewRandomWorkload(500, dev.SectorSize(), dev.Capacity(), 5000, 42)
	res := memsim.Simulate(dev, s, src, memsim.SimOptions{Warmup: 500})
	fmt.Printf("light load on %s: sub-millisecond mean response: %v\n",
		dev.Name(), res.Response.Mean() < 1.5)
	// Output:
	// light load on MEMS: sub-millisecond mean response: true
}

// ExampleNewMEMSDevice shows the geometry that falls out of the paper's
// Table 1 parameters.
func ExampleNewMEMSDevice() {
	dev, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
	if err != nil {
		panic(err)
	}
	g := dev.Geometry()
	fmt.Printf("cylinders: %d\n", g.Cylinders)
	fmt.Printf("sectors per track: %d\n", g.SectorsPerTrack)
	fmt.Printf("streaming: %.1f MB/s\n", g.StreamBandwidth()/1e6)
	// Output:
	// cylinders: 2500
	// sectors per track: 540
	// streaming: 79.6 MB/s
}

// ExampleNewDeviceArray builds the §6.2 RAID-5 array and issues one
// small write — a read-modify-write that costs the MEMS array only a
// turnaround between phases.
func ExampleNewDeviceArray() {
	members := make([]memsim.Device, 4)
	for i := range members {
		d, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
		if err != nil {
			panic(err)
		}
		members[i] = d
	}
	arr, err := memsim.NewDeviceArray(memsim.ArrayConfig{Level: memsim.VolumeParity, StripeUnit: 8}, members)
	if err != nil {
		panic(err)
	}
	svc := arr.Access(&memsim.Request{Op: memsim.Write, LBN: 0, Blocks: 8}, 0)
	fmt.Printf("RAID-5 small write under 2 ms: %v\n", svc < 2)
	// Output:
	// RAID-5 small write under 2 ms: true
}

// ExampleLossProbability reproduces §6.1's contrast: one head failure
// kills a disk, while the striped + ECC + spare-tip MEMS device shrugs
// off dozens of tip failures.
func ExampleLossProbability() {
	diskLike := memsim.FaultConfig{Tips: 6400, DataTips: 64, ECCTips: 0, SpareTips: 0}
	p, err := memsim.LossProbability(diskLike, 1, 200, newRand())
	if err != nil {
		panic(err)
	}
	fmt.Printf("disk-like, 1 failure: P(loss) = %.1f\n", p)
	p, err = memsim.LossProbability(memsim.DefaultFaultConfig(), 50, 200, newRand())
	if err != nil {
		panic(err)
	}
	fmt.Printf("MEMS default, 50 failures: P(loss) = %.1f\n", p)
	// Output:
	// disk-like, 1 failure: P(loss) = 1.0
	// MEMS default, 50 failures: P(loss) = 0.0
}

// ExampleRunExperiment regenerates one paper artifact programmatically.
func ExampleRunExperiment() {
	tables, err := memsim.RunExperiment("table2", memsim.QuickExperimentParams())
	if err != nil {
		panic(err)
	}
	fmt.Printf("table2 produced %d table(s) with %d rows\n", len(tables), len(tables[0].Rows))
	// Output:
	// table2 produced 1 table(s) with 4 rows
}

// newRand gives the examples a deterministic randomness source.
func newRand() *rand.Rand { return rand.New(rand.NewSource(7)) }
