package mems

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"memsim/internal/physics"
)

// refSeekX is Device.SeekX with the X seek solved by the general solver,
// the reference the rest-to-rest kernel must match.
func refSeekX(g *Geometry, sled *physics.Sled, from, to int) float64 {
	if from == to {
		return 0
	}
	return sled.SeekTime(g.XPos(from), 0, g.XPos(to), 0)*1e3 + g.SettleMs
}

// TestSeekXMatchesSolverBitwise checks SeekX against the solver-only
// reference over every cylinder pair of the Table 1 device, and over
// every 13th pair (in row-major order, so every offset is met) of the
// denser generations. Workers split the pairs so that the race-enabled
// run stays short.
func TestSeekXMatchesSolverBitwise(t *testing.T) {
	for gi, gen := range generations {
		d := MustDevice(gen.cfg)
		g := d.Geometry()
		sled := g.Sled()
		n := g.Cylinders
		stride := 1
		if gi > 0 {
			stride = 13
		}
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := w * stride; k < n*n; k += workers * stride {
					from, to := k/n, k%n
					if got, want := d.SeekX(from, to), refSeekX(g, sled, from, to); !sameBits(got, want) {
						t.Errorf("%s: SeekX(%d, %d) = %v, solver %v", gen.name, from, to, got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// TestErrorPenaltyOneCylinder pins the repositioning seek of a device
// with no neighbouring cylinder at zero: the penalty is the turnarounds
// alone.
func TestErrorPenaltyOneCylinder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BitsX = 1
	d := MustDevice(cfg)
	d.Access(reqAt(0, 8), 0)
	ta := d.turnaround(d.st)
	for _, u := range []float64{0.25, 0.75} {
		want := ta
		if u >= 0.5 {
			want = 2 * ta
		}
		if got := d.ErrorPenalty(nil, 0, u); got != want {
			t.Errorf("u=%g: ErrorPenalty %v, want %v (turnarounds only)", u, got, want)
		}
	}
	// A two-cylinder device still repositions to its other cylinder.
	cfg.BitsX = 2
	d = MustDevice(cfg)
	d.SetState(1, 0, 1)
	if got, want := d.ErrorPenalty(nil, 0, 0.25), d.turnaround(d.st)+d.SeekX(1, 0); got != want {
		t.Errorf("two cylinders: ErrorPenalty %v, want %v", got, want)
	}
}

var seekXSink float64

// BenchmarkSeekX prices random cylinder pairs of the Table 1 device with
// the rest-to-rest kernel (SeekX) and with the general solver it
// replaces; the ratio is the physics layer's share of the X seek gain.
func BenchmarkSeekX(b *testing.B) {
	d := MustDevice(DefaultConfig())
	g := d.Geometry()
	sled := g.Sled()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 1024)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.Cylinders), rng.Intn(g.Cylinders)}
	}
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			seekXSink += d.SeekX(p[0], p[1])
		}
	})
	b.Run("solver", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			seekXSink += refSeekX(g, sled, p[0], p[1])
		}
	})
}
