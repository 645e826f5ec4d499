package policies

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

var updateGolden = flag.Bool("update", false, "rewrite the tracker event golden")

// eventCases are the per-row counting trackers the event golden pins, built
// through the registry at thresholds low enough for the driven stream to
// mitigate, evict and alert many times.
var eventCases = []struct {
	name   string
	params map[string]string
}{
	{"prac", map[string]string{"ath": "24"}},
	{"mopac", map[string]string{"p": "0.25", "ath": "20"}},
	{"oracle", map[string]string{"threshold": "24"}},
}

// driveEvents runs one tracker through a fixed seeded command stream and
// renders what it did: its Stats, the count and a digest of its
// RowMitigated events, and the descriptions of the state faults injected
// into it. The stream is the same for every tracker: three in four ACTs go
// to one of eight hammered rows, each refreshed once during the run, the
// rest to a random bank and row; every 100 ACTs a REF walks on, every
// 1000 ACTs one bank gets an RFM, every 128 ACTs a wanted ALERT is
// serviced, and every 5000 ACTs an injector has one bit of state flipped.
func driveEvents(t *testing.T, name string, params map[string]string) string {
	t.Helper()
	g := dram.Default()
	const mapping = dram.StridedR2SA
	b, err := track.Build(name, params, track.Config{Geometry: g, Mapping: mapping, TRHD: 1000, Seed: 5})
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	var events int64
	digest := fnv.New64a()
	var buf [32]byte
	sink := track.FuncSink(func(bank, row, victims int, now dram.Time) {
		events++
		binary.LittleEndian.PutUint64(buf[0:], uint64(bank))
		binary.LittleEndian.PutUint64(buf[8:], uint64(row))
		binary.LittleEndian.PutUint64(buf[16:], uint64(victims))
		binary.LittleEndian.PutUint64(buf[24:], uint64(now))
		digest.Write(buf[:])
	})
	m, err := b.NewMitigator(0, sink)
	if err != nil {
		t.Fatalf("%s: NewMitigator: %v", name, err)
	}
	type hot struct{ bank, row int }
	var hots []hot
	for j := 0; j < 8; j++ {
		target := g.RefreshTargetOf(70*j + 3)
		hots = append(hots, hot{bank: (5 * j) % g.BanksPerSubChannel, row: g.RowAt(mapping, target.Subarray, target.FirstIdx+j%2)})
	}
	si, injector := m.(track.StateInjector)
	rng, frng := stats.NewRNG(2024), stats.NewRNG(99)
	var faults []string
	ref := 0
	for i := 0; i < 60000; i++ {
		now := dram.Time(i) * 3 * dram.Nanosecond
		bank, row := 0, 0
		if rng.Intn(4) != 0 {
			h := hots[rng.Intn(len(hots))]
			bank, row = h.bank, h.row
		} else {
			bank, row = rng.Intn(g.BanksPerSubChannel), rng.Intn(g.RowsPerBank)
		}
		m.OnActivate(bank, row, now)
		if i%128 == 127 && m.WantsALERT() {
			m.ServiceALERT(now)
		}
		if i%100 == 99 {
			m.OnREF(ref, now)
			ref = (ref + 1) % g.REFsPerWindow()
		}
		if i%1000 == 500 {
			m.OnRFM((i/1000)%g.BanksPerSubChannel, now)
		}
		if injector && i%5000 == 2500 {
			faults = append(faults, si.InjectStateFault(frng))
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %v: %s\n", name, params, m.Name())
	fmt.Fprintf(&sb, "  stats %+v\n", track.Source(m).TrackStats())
	fmt.Fprintf(&sb, "  mitigated %d events, digest %016x\n", events, digest.Sum64())
	fmt.Fprintf(&sb, "  state injector %v\n", injector)
	for _, f := range faults {
		fmt.Fprintf(&sb, "    %s\n", f)
	}
	return sb.String()
}

// TestTrackerEventGolden pins the per-row counting trackers event by event:
// the same stream must mitigate the same rows at the same times, raise the
// same ALERTs and flip the same counter bits as when the golden was
// recorded.
//
// Regenerate (only when a tracker's behavior changes on purpose):
//
//	go test ./internal/track/policies -run TestTrackerEventGolden -update
func TestTrackerEventGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range eventCases {
		sb.WriteString(driveEvents(t, c.name, c.params))
	}
	got := sb.String()
	path := filepath.Join("testdata", "golden_tracker_events.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("tracker events diverged from the golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
