package mem_test

// End-to-end fig3 harness: eight trace-driven cores running a Table-IV
// workload against the MINT+RFM configuration of Figure 3 on the
// production SubChannel command path. BenchmarkFig3 is a profiling entry
// point for that path; the tests below pin its steady-state contracts
// (no heap allocation per slice, one window traversal per scanning wake).
// Simulator speed is judged end to end by the bench/ module's compare
// against the parent commit, not here.

import (
	"testing"

	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register mint-rfm
)

const (
	benchCores = 8
	benchSeed  = 12345
	// 1ms lets every pool and queue reach its high-water mark on each
	// workload the alloc test covers: the command queue's write depth
	// keeps setting new maxima until roughly 300us in on fotonik3d, and
	// xalancbmk's cores keep growing their miss and write pools until
	// about 600us.
	benchWarmup = dram.Millisecond
	benchSlice  = 20 * dram.Microsecond
)

// benchSystem is the fig3 system plus the simulated-time cursor the
// benchmark and tests advance slice by slice.
type benchSystem struct {
	*cpu.System
	clock dram.Time
}

func newBenchSystem(tb testing.TB, workload string) *benchSystem {
	tb.Helper()
	spec, err := trace.Lookup(workload)
	if err != nil {
		tb.Fatal(err)
	}
	built, err := track.Build("mint-rfm", nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     1000,
		Seed:     benchSeed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	gens, err := trace.PerCore(spec, benchCores, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Cores: benchCores,
		Mem: mem.Config{
			Timing:       built.Timing(),
			Mapping:      dram.StridedR2SA,
			RFMBAT:       built.RFMBAT(),
			NewMitigator: built.Factory(),
		},
	}, gens)
	if err != nil {
		tb.Fatal(err)
	}
	return &benchSystem{System: sys}
}

// run starts the cores and simulates the warmup window, leaving the system
// in steady state: queues at working depth, every pool primed.
func (s *benchSystem) run() { s.advance(benchWarmup) }

// advance simulates d more time.
func (s *benchSystem) advance(d dram.Time) {
	s.clock += d
	s.Run(s.clock)
}

// BenchmarkFig3 measures one steady-state simulated-time slice per op.
// fotonik3d is the bandwidth-heavy case (62% bus utilisation: the command
// scans dominate); blender is the low-MPKI case (16%: idle fast-forward
// dominates).
func BenchmarkFig3(b *testing.B) {
	for _, workload := range []string{"fotonik3d", "blender"} {
		b.Run("workload="+workload, func(b *testing.B) {
			s := newBenchSystem(b, workload)
			s.run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.advance(benchSlice)
			}
		})
	}
}

// TestFig3SteadyStateAllocFree pins the pooled-request contract: once
// warm, whole simulated-time slices of the fig3 system execute without a
// single heap allocation. The workloads run from low to high memory
// intensity, blender (16% bus utilisation) to fotonik3d (62%).
func TestFig3SteadyStateAllocFree(t *testing.T) {
	for _, workload := range []string{"blender", "xalancbmk", "cactuBSSN", "omnetpp", "fotonik3d"} {
		t.Run(workload, func(t *testing.T) {
			s := newBenchSystem(t, workload)
			s.run()
			if allocs := testing.AllocsPerRun(20, func() { s.advance(benchSlice) }); allocs != 0 {
				t.Errorf("steady-state %s slice allocates %.1f times, want 0", workload, allocs)
			}
		})
	}
}

// TestFig3OneScanPerWake pins the fused scan: on steady-state fotonik3d
// traffic a scanning wake walks the window once, however many commands it
// issues. Only an activate that raises an ALERT (or a RowPress precharge,
// off here) costs a second traversal; the rescan-after-every-issue shape
// measured about 1.9.
func TestFig3OneScanPerWake(t *testing.T) {
	s := newBenchSystem(t, "fotonik3d")
	s.run()
	scans0, wakes0 := s.Channel.ScanTotals()
	for i := 0; i < 5; i++ {
		s.advance(benchSlice)
	}
	scans, wakes := s.Channel.ScanTotals()
	scans, wakes = scans-scans0, wakes-wakes0
	if wakes == 0 {
		t.Fatal("no scanning wakes in the measured slices")
	}
	if r := float64(scans) / float64(wakes); r > 1.05 {
		t.Errorf("%d traversals over %d scanning wakes = %.3f per wake, want <= 1.05", scans, wakes, r)
	}
}
