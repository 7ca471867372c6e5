// Array demo (§6.2): a four-sled RAID-5 array next to a four-disk one.
// The MEMS devices' near-zero read-modify-write repositioning (Table 2)
// erases the RAID-5 small-write penalty that spawned a decade of disk-
// array optimizations — and when the sleds share one Ultra160 bus, the
// interconnect, not the media, limits sequential bandwidth.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"memsim"
)

func main() {
	memsArr := buildArray(func() memsim.Device {
		d, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
		if err != nil {
			log.Fatal(err)
		}
		return d
	})
	diskArr := buildArray(func() memsim.Device {
		d, err := memsim.NewDiskDevice(memsim.Atlas10KConfig())
		if err != nil {
			log.Fatal(err)
		}
		return d
	})

	fmt.Println("RAID-5 ×4, 4 KB random writes (read-modify-write):")
	fmt.Printf("  MEMS array  %.3f ms\n", smallWrites(memsArr))
	fmt.Printf("  disk array  %.3f ms\n", smallWrites(diskArr))

	// Degraded mode: lose a member, reads reconstruct from survivors.
	memsArr.FailMember(2)
	fmt.Printf("\ndegraded MEMS array, 4 KB random reads: %.3f ms\n", smallReads(memsArr))
	memsArr.Repair()

	// Sequential bandwidth over a shared bus.
	b := memsim.NewBus(memsim.Ultra160BusConfig())
	onBus := make([]memsim.Device, 4)
	for i := range onBus {
		d, err := memsim.NewMEMSDevice(memsim.DefaultMEMSConfig())
		if err != nil {
			log.Fatal(err)
		}
		onBus[i] = b.Attach(d)
	}
	done := make([]float64, 4)
	var bytes float64
	for round := 0; round < 100; round++ {
		for i, d := range onBus {
			r := &memsim.Request{Op: memsim.Read, LBN: int64(round * 512), Blocks: 512}
			done[i] += d.Access(r, done[i])
			bytes += 512 * 512
		}
	}
	elapsed := 0.0
	for _, d := range done {
		if d > elapsed {
			elapsed = d
		}
	}
	fmt.Printf("\n4 sleds streaming over one Ultra160 bus: %.0f MB/s aggregate\n",
		bytes/(elapsed/1000)/1e6)
	fmt.Println("(each sled alone streams 79.6 MB/s — the bus is the bottleneck)")
}

func buildArray(mk func() memsim.Device) *memsim.DeviceArray {
	members := make([]memsim.Device, 4)
	for i := range members {
		members[i] = mk()
	}
	a, err := memsim.NewDeviceArray(memsim.ArrayConfig{Level: memsim.VolumeParity, StripeUnit: 8}, members)
	if err != nil {
		log.Fatal(err)
	}
	return a
}

func smallWrites(a *memsim.DeviceArray) float64 {
	rng := rand.New(rand.NewSource(1))
	now, sum := 0.0, 0.0
	const n = 300
	for i := 0; i < n; i++ {
		lbn := rng.Int63n(a.Capacity()-8) / 8 * 8
		svc := a.Access(&memsim.Request{Op: memsim.Write, LBN: lbn, Blocks: 8}, now)
		now += svc
		sum += svc
	}
	return sum / n
}

func smallReads(a *memsim.DeviceArray) float64 {
	rng := rand.New(rand.NewSource(2))
	now, sum := 0.0, 0.0
	const n = 300
	for i := 0; i < n; i++ {
		lbn := rng.Int63n(a.Capacity()-8) / 8 * 8
		svc := a.Access(&memsim.Request{Op: memsim.Read, LBN: lbn, Blocks: 8}, now)
		now += svc
		sum += svc
	}
	return sum / n
}
