package replay

import (
	"math"
	"math/bits"
	"runtime"
	"strings"
	"testing"
	"time"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
)

func gens(t *testing.T, name string, n int) []trace.Generator {
	t.Helper()
	spec, err := trace.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := trace.PerCore(spec, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func TestReplayBasics(t *testing.T) {
	r, err := NewRunner(Config{IPS: 8e9}, gens(t, "mcf", 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	var observed int64
	r.Run(2*dram.Millisecond, func(sub, bank, row int, now dram.Time) {
		observed++
	})
	st := r.Stats()
	var acts, refs int64
	for _, s := range st {
		acts += s.ACTs
		refs += s.REFs
	}
	if acts == 0 || observed != acts {
		t.Fatalf("acts=%d observed=%d", acts, observed)
	}
	// REF cadence: 2ms / 3.9us per sub-channel.
	wantREFs := int64(2 * (2 * dram.Millisecond) / dram.DDR5().TREFI)
	if refs < wantREFs-2 || refs > wantREFs+2 {
		t.Errorf("REFs = %d, want ~%d", refs, wantREFs)
	}
	if r.Now() != 2*dram.Millisecond {
		t.Errorf("now = %v", r.Now())
	}
}

func TestReplayActRateTracksIPS(t *testing.T) {
	// Doubling IPS should roughly double activations per unit time.
	run := func(ips float64) int64 {
		r, err := NewRunner(Config{IPS: ips}, gens(t, "mcf", 8), nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(dram.Millisecond, nil)
		var acts int64
		for _, s := range r.Stats() {
			acts += s.ACTs
		}
		return acts
	}
	a := run(4e9)
	b := run(8e9)
	ratio := float64(b) / float64(a)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("ACT ratio for 2x IPS = %.2f, want ~2", ratio)
	}
}

func TestReplayDrivesMitigator(t *testing.T) {
	cfg, _ := core.ForTRHD(1000)
	cfg.FTH = 50 // tiny so alerts occur quickly
	g := dram.Default()
	mits := make([]track.Mitigator, g.SubChannels)
	for i := range mits {
		c := cfg
		c.Seed = uint64(i)
		mits[i] = core.MustNew(c, track.NopSink{})
	}
	r, err := NewRunner(Config{IPS: 8e9}, gens(t, "fotonik3d", 8), mits)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(4*dram.Millisecond, nil)
	var alerts int64
	for _, s := range r.Stats() {
		alerts += s.Alerts
	}
	if alerts == 0 {
		t.Error("tiny-FTH MIRZA should have alerted under fotonik3d")
	}
	m := mits[0].(*core.Mirza)
	if m.Stats.ACTs == 0 || m.Stats.Mitigations == 0 {
		t.Errorf("mitigator unused: %+v", m.Stats)
	}
}

// TestReplayValidation: NewRunner rejects configs under which Run could
// never reach its end time, and an accepted config must reach it.
func TestReplayValidation(t *testing.T) {
	if _, err := NewRunner(Config{IPS: 1e9}, nil, nil); err == nil {
		t.Error("no generators must be rejected")
	}
	if _, err := NewRunner(Config{IPS: 1e9}, gens(t, "mcf", 1), make([]track.Mitigator, 5)); err == nil {
		t.Error("mitigator count mismatch must be rejected")
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		cores int
		ok    bool
	}{
		{"zero IPS", Config{}, 2, false},
		{"negative IPS", Config{IPS: -1e9}, 2, false},
		{"NaN IPS", Config{IPS: math.NaN()}, 2, false},
		{"+Inf IPS", Config{IPS: math.Inf(1)}, 2, false},
		{"-Inf IPS", Config{IPS: math.Inf(-1)}, 2, false},
		{"IPS too low to represent one instruction", Config{IPS: 1e-300}, 2, false},
		{"one instruction past 2^63 ps", Config{IPS: 2e-7}, 2, false},
		{"negative row-open window", Config{IPS: 1e9, RowOpenWindow: -1}, 2, false},
		{"slow but representable IPS", Config{IPS: 1}, 2, true},
		{"explicit row-open window", Config{IPS: 1e9, RowOpenWindow: dram.Nanosecond}, 2, true},
		// One instruction per core must take at least one picosecond, or
		// the core clocks never advance.
		{"one instruction in exactly 1 ps", Config{IPS: 8e12}, 8, true},
		{"one instruction in 0.8 ps", Config{IPS: 1e13}, 8, false},
		// Past 2^62 ps a 2-core clock saturates at the merge-key horizon:
		// the cores never issue, and Run still returns.
		{"clocks past the merge-key horizon", Config{IPS: 1e-6}, 2, true},
	} {
		r, err := NewRunner(tc.cfg, gens(t, "mcf", tc.cores), nil)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if r == nil {
			continue
		}
		done := make(chan struct{})
		go func() {
			r.Run(10*dram.Microsecond, nil)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Run(10µs) did not return", tc.name)
		}
	}

	// The core count is capped so a core index fits a merge key's low bits.
	opsGens := func(n int) []trace.Generator {
		ops := []trace.Op{{Gap: 3, Line: 1}, {Gap: 40, Line: 1 << 12}}
		gs := make([]trace.Generator, n)
		for c := range gs {
			g, err := trace.NewOps("tiny", ops)
			if err != nil {
				t.Fatal(err)
			}
			gs[c] = g
		}
		return gs
	}
	if _, err := NewRunner(Config{IPS: 1e9}, opsGens(maxCores+1), nil); err == nil {
		t.Errorf("%d cores must be rejected", maxCores+1)
	}
	r, err := NewRunner(Config{IPS: 1e9}, opsGens(maxCores), nil)
	if err != nil {
		t.Fatalf("%d cores: %v", maxCores, err)
	}
	r.Run(10*dram.Microsecond, nil)

	// Run refuses an end time past the merge-key horizon by name, before
	// it starts the producer.
	for _, cores := range []int{2, 3, 8, maxCores} {
		r, err := NewRunner(Config{IPS: 1e9}, opsGens(cores), nil)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		got := make(chan any, 1)
		horizon := dram.Time(math.MaxInt64 >> bits.Len(uint(cores-1)))
		go func() { got <- runPanics(r, horizon+1) }()
		select {
		case v := <-got:
			if msg, ok := v.(string); !ok || !strings.Contains(msg, "merge-key horizon") {
				t.Errorf("%d cores: Run past the horizon panicked with %v, want the horizon named", cores, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d cores: Run past the horizon did not panic", cores)
		}
		waitGoroutines(t, before)
	}
}
