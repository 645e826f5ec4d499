package replay

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
)

// boom is a panic value only these tests raise; identity is checked with ==.
type boom struct{ at int }

// panicGen panics with boom on its failAt-th call to Next.
type panicGen struct {
	trace.Generator
	calls, failAt int
}

func (g *panicGen) Next(op *trace.Op) {
	if g.calls++; g.calls == g.failAt {
		panic(&boom{g.calls})
	}
	g.Generator.Next(op)
}

// panicMit panics with boom on its failAt-th activation.
type panicMit struct {
	track.Mitigator
	acts, failAt int
}

func (m *panicMit) OnActivate(bank, row int, now dram.Time) {
	if m.acts++; m.acts == m.failAt {
		panic(&boom{m.acts})
	}
	m.Mitigator.OnActivate(bank, row, now)
}

// runPanics calls r.Run and returns the value it panicked with.
func runPanics(r *Runner, until dram.Time) (v any) {
	defer func() { v = recover() }()
	r.Run(until, nil)
	return nil
}

// waitGoroutines waits for the goroutine count to drop back to want; an
// exiting goroutine may still be counted for a moment after its last send.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines remain, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGeneratorPanicReachesRun checks that a panic on the producer
// goroutine re-panics on Run's goroutine with its original value, only
// after Run has issued every op of the failing core's chunks filled before
// the failure, that no goroutine survives it, and that the Runner stays
// dead afterwards. A failAt inside the third chunk fails while the
// producer draws ahead for the first Run, before Run hands any chunk back.
func TestGeneratorPanicReachesRun(t *testing.T) {
	cases := []struct {
		cores, failAt int
	}{
		{4, 5 * chunkOps},
		{4, 2*chunkOps + 7},
		{1, 5 * chunkOps},
		{1, 2*chunkOps + 7},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				name := fmt.Sprintf("cores=%d failAt=%d procs=%d", tc.cores, tc.failAt, procs)
				before := runtime.NumGoroutine()
				gs := gens(t, "mcf", tc.cores)
				fail := tc.cores / 2
				pg := &panicGen{Generator: gs[fail], failAt: tc.failAt}
				gs[fail] = pg
				r, err := NewRunner(Config{IPS: float64(tc.cores) * 1e9}, gs, nil)
				if err != nil {
					t.Fatal(err)
				}
				v := runPanics(r, 10*dram.Millisecond)
				b, ok := v.(*boom)
				if !ok || b.at != pg.failAt {
					t.Fatalf("%s: Run panicked with %#v, want the generator's *boom", name, v)
				}
				// The failing core issued every op of its whole chunks;
				// with one core, nothing else.
				var issued int64
				for _, s := range r.Stats() {
					issued += s.Accesses
				}
				drawn := int64((tc.failAt - 1) / chunkOps * chunkOps)
				if issued < drawn || tc.cores == 1 && issued != drawn {
					t.Errorf("%s: Run issued %d ops before re-panicking, want all %d drawn before the failure", name, issued, drawn)
				}
				waitGoroutines(t, before)
				if again := runPanics(r, 20*dram.Millisecond); again != v {
					t.Errorf("%s: a second Run panicked with %#v, want the same value", name, again)
				}
				waitGoroutines(t, before)
			}()
		}
	}
}

// TestMitigatorPanicStopsProducer checks that Run unwinding from a tracker
// panic still stops the producer.
func TestMitigatorPanicStopsProducer(t *testing.T) {
	before := runtime.NumGoroutine()
	mits := make([]track.Mitigator, dram.Default().SubChannels)
	pm := &panicMit{Mitigator: track.NewMINT(track.MINTConfig{Geometry: dram.Default(), Window: 64}, track.NopSink{}), failAt: 3000}
	mits[1] = pm
	r, err := NewRunner(Config{IPS: 8e9}, gens(t, "fotonik3d", 8), mits)
	if err != nil {
		t.Fatal(err)
	}
	v := runPanics(r, dram.Millisecond)
	if b, ok := v.(*boom); !ok || b.at != pm.failAt {
		t.Fatalf("Run panicked with %#v, want the mitigator's *boom", v)
	}
	waitGoroutines(t, before)
}
