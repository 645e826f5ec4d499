package mem_test

// End-to-end fig3 benchmark: eight trace-driven cores running a Table-IV
// workload against the MINT+RFM configuration of Figure 3, wired either to
// the redesigned SubChannel command path (impl=event) or to the preserved
// pre-redesign reference in legacy_ref_test.go (impl=legacy). Both builds
// share one kernel/core/trace stack, so the measured difference is the
// command path alone. `make bench-mem` pipes these results (plus the
// direct-drive replay pairs of bench_replay_test.go) through cmd/benchjson,
// which enforces 0 allocs/op on every impl=event benchmark and the same
// >= 1.5x paired speedup gate as the kernel's bench-smoke, recorded in
// BENCH_mem.json.

import (
	"testing"

	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/sim"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies" // register mint-rfm
	"mirza/internal/vmap"
)

const (
	benchCores = 8
	benchSeed  = 12345
	// 300us lets every pool and queue reach its high-water mark: the
	// command queue's write depth keeps setting new maxima (one append
	// per ~20us slice) until roughly 300us in, then never again.
	benchWarmup = 300 * dram.Microsecond
	benchSlice  = 20 * dram.Microsecond
)

// benchSystem is the minimal full-system harness: NewSystem hard-codes the
// production mem.Channel, so the legacy pairing replicates its wiring with
// the submit hook swapped.
type benchSystem struct {
	k     *sim.Kernel
	ch    *mem.Channel // nil for the legacy impl
	cores []*cpu.Core
	clock dram.Time
}

// newBenchSystem builds the system; a non-nil tap sees every request the
// cores submit (with its arrival time) before the channel does, so the
// command-path replay benchmark can record fig3 request streams.
func newBenchSystem(tb testing.TB, impl, workload string, tap func(*mem.Request, dram.Time)) *benchSystem {
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
	cfg := mem.Config{
		Timing:       built.Timing(),
		Mapping:      dram.StridedR2SA,
		RFMBAT:       built.RFMBAT(),
		NewMitigator: built.Factory(),
	}

	s := &benchSystem{k: &sim.Kernel{}}
	k := s.k
	var submit func(*mem.Request)
	var geom dram.Geometry
	switch impl {
	case "event":
		ch, err := mem.NewChannel(k, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		s.ch = ch
		submit = ch.Submit
		geom = ch.Geometry()
	case "legacy":
		ch, err := mem.NewLegacyChannel(k, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		submit = ch.Submit
		geom = ch.Geometry()
	default:
		tb.Fatalf("unknown impl %q", impl)
	}

	if tap != nil {
		inner := submit
		submit = func(r *mem.Request) {
			tap(r, k.Now())
			inner(r)
		}
	}

	gens, err := trace.PerCore(spec, benchCores, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	mapper := vmap.NewMapper(geom.CapacityBytes())
	translate := func(core int, vaddr uint64) uint64 {
		return mapper.Translate(core, vaddr)
	}
	for i, g := range gens {
		if fp, ok := g.(interface{ FootprintBytes() uint64 }); ok {
			for off := uint64(0); off < fp.FootprintBytes(); off += vmap.SuperBytes {
				mapper.Translate(i, off)
			}
		}
		s.cores = append(s.cores, cpu.NewCore(i, cpu.CoreConfig{}, k, g, translate, submit, nil))
	}
	return s
}

// run starts the cores and simulates the warmup window, leaving the system
// in steady state: queues at working depth, every pool primed.
func (s *benchSystem) run() {
	for _, c := range s.cores {
		c.Start()
	}
	s.advance(benchWarmup)
}

// advance simulates d more time.
func (s *benchSystem) advance(d dram.Time) {
	s.clock += d
	s.k.RunUntil(s.clock)
}

// BenchmarkFig3 measures one steady-state simulated-time slice per op, so
// ns/op is directly comparable between impls (same simulated work per op).
// fotonik3d is the bandwidth-heavy case (62% bus utilisation: the command
// scans dominate); blender is the low-MPKI case (16%: idle fast-forward
// dominates).
func BenchmarkFig3(b *testing.B) {
	for _, workload := range []string{"fotonik3d", "blender"} {
		for _, impl := range []string{"event", "legacy"} {
			b.Run("impl="+impl+"/workload="+workload, func(b *testing.B) {
				s := newBenchSystem(b, impl, workload, nil)
				s.run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.advance(benchSlice)
				}
			})
		}
	}
}

// TestFig3SteadyStateAllocFree pins the pooled-request contract directly
// (the benchjson alloc gate pins it per benchmark run): once warm, whole
// simulated-time slices of the fig3 system execute without a single heap
// allocation.
func TestFig3SteadyStateAllocFree(t *testing.T) {
	for _, workload := range []string{"fotonik3d", "blender"} {
		t.Run(workload, func(t *testing.T) {
			s := newBenchSystem(t, "event", workload, nil)
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
	s := newBenchSystem(t, "event", "fotonik3d", nil)
	s.run()
	scans0, wakes0 := s.ch.ScanTotals()
	for i := 0; i < 5; i++ {
		s.advance(benchSlice)
	}
	scans, wakes := s.ch.ScanTotals()
	scans, wakes = scans-scans0, wakes-wakes0
	if wakes == 0 {
		t.Fatal("no scanning wakes in the measured slices")
	}
	if r := float64(scans) / float64(wakes); r > 1.05 {
		t.Errorf("%d traversals over %d scanning wakes = %.3f per wake, want <= 1.05", scans, wakes, r)
	}
}
