package fault

import (
	"math/rand"
	"testing"
)

// injArray is a small valid redundancy configuration for injector tests:
// one 64+2 stripe group and no spares, so a tip failure degrades its
// stripe immediately and visibly.
var injArray = Config{Tips: 66, DataTips: 64, ECCTips: 2, SpareTips: 0}

func TestInjectorConfigValidate(t *testing.T) {
	bad := []InjectorConfig{
		{TransientRate: -0.1},
		{TransientRate: 1.0},
		{MaxRetries: -1},
		{MaxRequeues: -2},
		{FallbackPenaltyMs: -1},
		{ECCSurchargeMs: -0.5},
		{Events: []TipEvent{{AtMs: 0, Tip: 0}}}, // events without an array
		{Array: &injArray, Events: []TipEvent{{AtMs: -1, Tip: 0}}},
		{Array: &injArray, Events: []TipEvent{{AtMs: 0, Tip: 66}}},
		{Array: &injArray, Events: []TipEvent{{AtMs: 0, Tip: -1}}},
		{Array: &Config{Tips: 65, DataTips: 64, ECCTips: 2, SpareTips: 0}}, // invalid array
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
		if _, err := NewInjector(cfg); err == nil {
			t.Errorf("config %d: NewInjector accepted invalid config", i)
		}
	}
	good := DefaultInjectorConfig()
	good.TransientRate = 0.1
	good.Array = &injArray
	good.Events = []TipEvent{{AtMs: 5, Tip: 3}, {AtMs: 1, Tip: 7, Defect: true}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestInjectorZeroRateDrawsNothing(t *testing.T) {
	// The byte-identity guarantee hinges on rate 0 never touching the rng.
	in, err := NewInjector(InjectorConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if in.TransientError() {
			t.Fatal("zero-rate injector reported a transient error")
		}
	}
	// The stream is untouched: the first explicit draw matches a fresh
	// injector's first draw.
	fresh, _ := NewInjector(InjectorConfig{Seed: 42})
	if in.Draw() != fresh.Draw() {
		t.Error("zero-rate TransientError consumed random draws")
	}
}

// TestInjectorSeedsLazily checks that the stream after every Reset is
// exactly a freshly seeded source's, however many draws came before,
// and that a zero-rate injector never seeds at all.
func TestInjectorSeedsLazily(t *testing.T) {
	in, err := NewInjector(InjectorConfig{Seed: 42, TransientRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if in.rng != nil {
		t.Fatal("NewInjector seeded its stream before any draw")
	}
	for round := 0; round < 3; round++ {
		in.Reset()
		ref := rand.New(rand.NewSource(42))
		for i := 0; i < 1000; i++ {
			if i%2 == 0 {
				if got, want := in.Draw(), ref.Float64(); got != want {
					t.Fatalf("round %d draw %d: %v, fresh source gives %v", round, i, got, want)
				}
			} else if got, want := in.TransientError(), ref.Float64() < 0.5; got != want {
				t.Fatalf("round %d draw %d: transient error %v, fresh source gives %v", round, i, got, want)
			}
		}
	}

	zero, err := NewInjector(InjectorConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		zero.Reset()
		zero.TransientError()
	}
	if zero.rng != nil || zero.seeded {
		t.Error("a zero-rate injector seeded its stream")
	}
}

func TestInjectorTransientRateRoughlyHolds(t *testing.T) {
	in, err := NewInjector(InjectorConfig{TransientRate: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.TransientError() {
			hits++
		}
	}
	if frac := float64(hits) / n; frac < 0.27 || frac > 0.33 {
		t.Errorf("transient fraction = %.3f, want ≈0.30", frac)
	}
}

func TestInjectorAdvanceFiresInOrder(t *testing.T) {
	cfg := InjectorConfig{
		Array: &injArray,
		// Declared out of order; Advance must fire by simulated time.
		Events: []TipEvent{
			{AtMs: 30, Tip: 1},
			{AtMs: 10, Tip: 5, Defect: true},
			{AtMs: 20, Tip: 3},
		},
		SectorTips: func(int64) []int { return []int{3} },
	}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := in.Advance(5); n != 0 {
		t.Fatalf("fired %d events before any were due", n)
	}
	if n := in.Advance(10); n != 1 || in.MediaDefectsFired() != 1 {
		t.Fatalf("at t=10: fired=%d defects=%d", n, in.MediaDefectsFired())
	}
	// The defect is absorbed by stripe ECC without degrading service.
	if in.DegradedBlocks(0, 4) != 0 {
		t.Error("media defect alone should not degrade reads")
	}
	if n := in.Advance(25); n != 1 || in.TipFailuresFired() != 1 {
		t.Fatalf("at t=25: fired=%d failures=%d", n, in.TipFailuresFired())
	}
	// Tip 3 failed with no spares: every sector striped over it is now
	// degraded.
	if in.DegradedBlocks(100, 4) != 4 {
		t.Errorf("degraded blocks = %d, want 4", in.DegradedBlocks(100, 4))
	}
	if n := in.Advance(1000); n != 1 || in.TipFailuresFired() != 2 {
		t.Fatalf("final event: fired=%d failures=%d", n, in.TipFailuresFired())
	}
	if in.Array().DegradedStripes() == 0 {
		t.Error("array should report degraded stripes")
	}
}

func TestInjectorSparesAbsorbFailuresBeforeDegrading(t *testing.T) {
	withSpares := Config{Tips: 196, DataTips: 64, ECCTips: 2, SpareTips: 64}
	in, err := NewInjector(InjectorConfig{
		Array:      &withSpares,
		Events:     []TipEvent{{AtMs: 1, Tip: 0}},
		SectorTips: func(int64) []int { return []int{0} },
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(2)
	// A spare covered the failure: the stripe is remapped, not degraded.
	if in.DegradedBlocks(0, 8) != 0 {
		t.Error("spared tip failure should not degrade reads")
	}
	if left := in.Array().SparesLeft(); left != 63 {
		t.Errorf("spares left = %d, want 63", left)
	}
}

func TestInjectorDegradedBlocksWithoutMapping(t *testing.T) {
	// Disks have no tip array: SectorTips nil must disable the scan even
	// with a degraded array.
	in, err := NewInjector(InjectorConfig{
		Array:  &injArray,
		Events: []TipEvent{{AtMs: 0, Tip: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(1)
	if in.DegradedBlocks(0, 100) != 0 {
		t.Error("nil SectorTips should report no degraded blocks")
	}
}

func TestInjectorResetRestoresEverything(t *testing.T) {
	cfg := InjectorConfig{
		TransientRate: 0.5,
		Seed:          99,
		Array:         &injArray,
		Events:        []TipEvent{{AtMs: 1, Tip: 4}},
		SectorTips:    func(int64) []int { return []int{4} },
	}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var before []bool
	for i := 0; i < 50; i++ {
		before = append(before, in.TransientError())
	}
	in.Advance(10)
	if in.TipFailuresFired() != 1 || in.DegradedBlocks(0, 1) != 1 {
		t.Fatal("setup: event did not fire")
	}

	in.Reset()
	if in.TipFailuresFired() != 0 || in.MediaDefectsFired() != 0 {
		t.Error("Reset kept event counters")
	}
	if in.DegradedBlocks(0, 1) != 0 {
		t.Error("Reset kept degraded state")
	}
	for i, want := range before {
		if got := in.TransientError(); got != want {
			t.Fatalf("draw %d after Reset = %v, want %v (stream not reseeded)", i, got, want)
		}
	}
	// Events fire again after Reset.
	if n := in.Advance(10); n != 1 {
		t.Errorf("Reset did not rearm events: fired %d", n)
	}
}

func TestInjectorAccessors(t *testing.T) {
	cfg := DefaultInjectorConfig()
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if in.MaxRetries() != cfg.MaxRetries || in.MaxRequeues() != cfg.MaxRequeues {
		t.Error("retry budgets do not round-trip")
	}
	if in.FallbackPenaltyMs() != cfg.FallbackPenaltyMs || in.ECCSurchargeMs() != cfg.ECCSurchargeMs {
		t.Error("penalties do not round-trip")
	}
	if in.Array() != nil {
		t.Error("array should be nil without a configuration")
	}
}

func TestInjectorDeviceEvents(t *testing.T) {
	bad := []InjectorConfig{
		{DeviceEvents: []DeviceEvent{{AtMs: -1, Dev: 0}}},
		{DeviceEvents: []DeviceEvent{{AtMs: 0, Dev: -3}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	// The accessor returns the schedule sorted by firing time, stable
	// w.r.t. declaration order for ties.
	in, err := NewInjector(InjectorConfig{DeviceEvents: []DeviceEvent{
		{AtMs: 30, Dev: 2},
		{AtMs: 10, Dev: 1},
		{AtMs: 10, Dev: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := in.DeviceEvents()
	want := []DeviceEvent{{AtMs: 10, Dev: 1}, {AtMs: 10, Dev: 0}, {AtMs: 30, Dev: 2}}
	if len(got) != len(want) {
		t.Fatalf("schedule length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestInjectorLostBlocksAfterECCExhausted(t *testing.T) {
	// Two ECC tips absorb two failures in a stripe; the third exceeds
	// the budget and the stripe's sectors become unrecoverable.
	in, err := NewInjector(InjectorConfig{
		Array: &injArray,
		Events: []TipEvent{
			{AtMs: 1, Tip: 0},
			{AtMs: 2, Tip: 1},
			{AtMs: 3, Tip: 2},
		},
		SectorTips: func(lbn int64) []int {
			if lbn < 8 {
				return []int{0}
			}
			return []int{40} // healthy tip
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Advance(2.5)
	// Two failures: degraded but still within the ECC budget.
	if in.LostBlocks(0, 8) != 0 {
		t.Error("data reported lost while ECC can still reconstruct")
	}
	if in.DegradedBlocks(0, 8) != 8 {
		t.Errorf("degraded blocks = %d, want 8", in.DegradedBlocks(0, 8))
	}
	in.Advance(3.5)
	if !in.Array().DataLoss() {
		t.Fatal("third failure in a 2-ECC stripe must lose data")
	}
	if in.LostBlocks(0, 8) != 8 {
		t.Errorf("lost blocks = %d, want 8", in.LostBlocks(0, 8))
	}
	// Sectors on healthy tips are unaffected.
	if in.LostBlocks(100, 8) != 0 {
		t.Errorf("healthy sectors reported lost: %d", in.LostBlocks(100, 8))
	}

	in.Reset()
	if in.LostBlocks(0, 8) != 0 {
		t.Error("Reset kept loss state")
	}
}
