package replay

import (
	"runtime"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register mirza, mint-rfm and mopac
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

// TestReplayRunAllocFree pins the replay hot loop at zero allocations once
// warm. It counts runtime.MemStats.Mallocs over 20 warm 1 ms slices (5
// under -short, which the race-enabled sweep uses) and requires exactly
// 0: testing.AllocsPerRun truncates its mean, so one or two allocations
// per run would read as 0. It runs at GOMAXPROCS(1)
// because every Run starts the trace producer goroutine (DESIGN.md §22),
// and with a second P that start can allocate: BenchmarkReplayRun reads
// 0 B/op at -cpu 1 and about 20 B/op at -cpu 2, under both policies. That
// allocation is the goroutine start, not the loop or the tracker. MoPAC
// stands for the per-row counter trackers (DESIGN.md §24): once warm, the
// rows a slice activates lie in counter chunks that already exist.
func TestReplayRunAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	slices := 20
	if testing.Short() {
		slices = 5
	}
	for _, policy := range []string{"mirza", "mint-rfm", "mopac"} {
		t.Run(policy, func(t *testing.T) {
			r := newWarmRunner(t, policy)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < slices; i++ {
				r.Run(r.Now()+dram.Millisecond, nil)
			}
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Errorf("%s: %d warm 1 ms replay slices allocated %d times, want 0", policy, slices, n)
			}
		})
	}
}
