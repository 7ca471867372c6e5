// memsim runs a single storage simulation of the random workload from
// flags and prints the resulting metrics — a workbench for exploring the
// device models beyond the paper's fixed experiments. Trace replay lives
// in memstrace (-gen, -replay).
//
// Usage examples:
//
//	memsim -device mems -sched SPTF -rate 1500 -requests 20000
//	memsim -device disk -sched C-LOOK -rate 100
//	memsim -device mems -settle 0 -sched SSTF_LBN -rate 2000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"memsim/internal/core"
	"memsim/internal/disk"
	"memsim/internal/mems"
	"memsim/internal/sched"
	"memsim/internal/sim"
	"memsim/internal/workload"
)

func main() {
	var (
		device    = flag.String("device", "mems", "device model: mems | disk")
		schedName = flag.String("sched", "SPTF", "scheduler: "+strings.Join(sched.AllNames(), " | "))
		rate      = flag.Float64("rate", 1000, "arrival rate for the random workload (req/s)")
		requests  = flag.Int("requests", 20000, "number of requests")
		warmup    = flag.Int("warmup", 1000, "completions excluded from statistics")
		settle    = flag.Float64("settle", 1, "MEMS settling time constants")
		seed      = flag.Int64("seed", 1, "workload seed")
		progress  = flag.Bool("progress", false, "report completions to stderr while the run is in flight")
	)
	flag.Parse()

	var dev core.Device
	switch *device {
	case "mems":
		cfg := mems.DefaultConfig()
		cfg.SettleConstants = *settle
		d, err := mems.NewDevice(cfg)
		if err != nil {
			fatal(err)
		}
		dev = d
	case "disk":
		d, err := disk.NewDevice(disk.Atlas10K())
		if err != nil {
			fatal(err)
		}
		dev = d
	default:
		fatal(fmt.Errorf("unknown device %q (want mems or disk)", *device))
	}

	s, err := sched.New(*schedName)
	if err != nil {
		fatal(err)
	}

	src := workload.DefaultRandom(*rate, dev.SectorSize(), dev.Capacity(), *requests, *seed)

	var ctx *sim.Context
	if *progress {
		ctx = &sim.Context{
			ProgressEvery: 1000,
			OnProgress: func(completed int, simMs float64) {
				fmt.Fprintf(os.Stderr, "memsim: %d/%d requests, %.0f ms simulated\n",
					completed, *requests, simMs)
			},
		}
	}
	res := sim.Run(ctx, dev, s, src, sim.Options{Warmup: *warmup})
	fmt.Printf("device           %s\n", dev.Name())
	fmt.Printf("scheduler        %s\n", s.Name())
	fmt.Printf("requests         %d (after %d warmup)\n", res.Requests, *warmup)
	fmt.Printf("simulated time   %.1f ms\n", res.Elapsed)
	fmt.Printf("utilization      %.1f%%\n", res.Utilization()*100)
	fmt.Printf("mean response    %.3f ms\n", res.Response.Mean())
	fmt.Printf("response stddev  %.3f ms\n", res.Response.StdDev())
	fmt.Printf("response cv²     %.3f\n", res.Response.SquaredCV())
	fmt.Printf("max response     %.3f ms\n", res.Response.Max())
	fmt.Printf("mean service     %.3f ms\n", res.Service.Mean())
	fmt.Printf("mean queue len   %.2f (max %d)\n", res.QueueLen.Mean(), res.MaxQueue)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsim:", err)
	os.Exit(1)
}
