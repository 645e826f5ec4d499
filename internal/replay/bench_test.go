package replay

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register mirza and mint-rfm
)

// benchPolicies are the trackers the replay-heavy experiments drive: MIRZA
// (filter, sampler and ALERTs) and MINT+RFM.
var benchPolicies = []string{"mirza", "mint-rfm"}

// newWarmRunner replays fotonik3d on 8 cores into policy, built through
// track.Build as the experiments build it, and runs 2 ms of warmup so every
// page is mapped and every tracker structure is primed.
func newWarmRunner(tb testing.TB, policy string) *Runner {
	tb.Helper()
	b, err := track.Build(policy, nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     1000,
		Seed:     1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := trace.Lookup("fotonik3d")
	if err != nil {
		tb.Fatal(err)
	}
	gens, err := trace.PerCore(spec, 8, 1)
	if err != nil {
		tb.Fatal(err)
	}
	mits := make([]track.Mitigator, dram.Default().SubChannels)
	for sub := range mits {
		if mits[sub], err = b.NewMitigator(sub, track.NopSink{}); err != nil {
			tb.Fatal(err)
		}
	}
	r, err := NewRunner(Config{IPS: spec.ImpliedIPS()}, gens, mits)
	if err != nil {
		tb.Fatal(err)
	}
	r.Run(2*dram.Millisecond, nil)
	return r
}

// BenchmarkReplayRun times the replay layer on its own: one op is 1 ms of
// replayed time, so ns/op compares directly across changes.
func BenchmarkReplayRun(b *testing.B) {
	for _, policy := range benchPolicies {
		b.Run(policy, func(b *testing.B) {
			r := newWarmRunner(b, policy)
			acts := func() (n int64) {
				for _, s := range r.Stats() {
					n += s.ACTs
				}
				return n
			}
			before := acts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(r.Now()+dram.Millisecond, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(acts()-before)/float64(b.N), "ACTs/op")
		})
	}
}

// TestReplayRunAllocFree pins the replay hot loop at zero allocations per
// 1 ms slice once warm.
func TestReplayRunAllocFree(t *testing.T) {
	for _, policy := range benchPolicies {
		t.Run(policy, func(t *testing.T) {
			r := newWarmRunner(t, policy)
			if allocs := testing.AllocsPerRun(3, func() { r.Run(r.Now()+dram.Millisecond, nil) }); allocs != 0 {
				t.Errorf("%s: a warm 1 ms replay slice allocates %.1f times, want 0", policy, allocs)
			}
		})
	}
}
