package mem

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/track"
)

// TestWideBankGeometry is the regression test for the arm() scratch arrays:
// they were fixed-size [64]bool, so any geometry with more than 64 banks per
// sub-channel panicked with an index out of range as soon as two requests
// targeted a high bank. The arrays are now sized from the geometry.
func TestWideBankGeometry(t *testing.T) {
	g := dram.Geometry{
		SubChannels:        1,
		BanksPerSubChannel: 128,
		RowsPerBank:        8192,
		RowBytes:           4096,
		LineBytes:          64,
		MOPLines:           4,
		SubarrayRows:       1024,
		RowsPerREF:         16,
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	k, ch := newTestChannel(t, Config{Geometry: g})
	// Two waves over every bank: the second wave row-conflicts in every
	// bank, so arm() marks conflictBank entries all the way up to bank 127.
	done := make([]dram.Time, 2*g.BanksPerSubChannel)
	for wave := 0; wave < 2; wave++ {
		for b := 0; b < g.BanksPerSubChannel; b++ {
			addr := g.Compose(dram.Address{Bank: b, Row: 100 + wave, Col: 0})
			i := wave*g.BanksPerSubChannel + b
			ch.Submit(&Request{Addr: addr, Done: func(at dram.Time) { done[i] = at }})
		}
	}
	k.RunUntil(100 * dram.Microsecond)
	for i, d := range done {
		if d == 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
	if st := ch.Stats(); st.ACTs < int64(2*g.BanksPerSubChannel) {
		t.Errorf("ACTs = %d, want >= %d (a conflict per bank per wave)", st.ACTs, 2*g.BanksPerSubChannel)
	}
}

// TestDequeueReleasesQueueSlot verifies that retiring a request clears
// every slot that held it — its window slot and the overflow ring slot it
// waited in — so a retired *Request is not pinned by the sub-channel's
// storage until a later enqueue happens to overwrite it. The window is
// shallow so most requests pass through the overflow ring first.
func TestDequeueReleasesQueueSlot(t *testing.T) {
	k, ch := newTestChannel(t, Config{WindowDepth: 4})
	var done [16]dram.Time
	for i := range done {
		i := i
		addr := ch.Geometry().Compose(dram.Address{Bank: i % 4, Row: i, Col: 0})
		ch.Submit(&Request{Addr: addr, Done: func(at dram.Time) { done[i] = at }})
	}
	k.RunUntil(10 * dram.Microsecond)
	for i, d := range done {
		if d == 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
	for _, s := range ch.subs {
		if n := s.PendingRequests(); n != 0 {
			t.Fatalf("sub %d: %d requests still queued", s.id, n)
		}
		for i, e := range s.slots {
			if e.r != nil {
				t.Errorf("sub %d: vacated window slot %d still references a request", s.id, i)
			}
		}
		for i, r := range s.overflow.buf {
			if r != nil {
				t.Errorf("sub %d: vacated overflow slot %d still references a request", s.id, i)
			}
		}
	}
	if len(ch.subs[0].overflow.buf) == 0 {
		t.Error("no request waited in the overflow ring")
	}
}

// TestForcedClosePREAccounting pins the ALERT forced-close accounting
// decision (DESIGN.md section 12): rows closed by the prologue-to-stall
// transition go through the normal precharge path, so they appear in
// Stats.PREs and reach observers flagged as forced. Before the fix the
// forced closes reset bank state directly, under-counting PREs and skipping
// RowPress weighting.
func TestForcedClosePREAccounting(t *testing.T) {
	aa := &alwaysAlert{after: 2}
	k, ch := newTestChannel(t, Config{
		NewMitigator: func(sub int, sink track.Sink) track.Mitigator {
			if sub == 0 {
				return aa
			}
			return track.NewNop()
		},
	})
	rec := &preRecorder{}
	ch.InstallObserver(rec)
	// A long burst of row hits keeps bank 0's row open through the 180ns
	// ALERT prologue; the bank-1 ACT raises the ALERT. At stall start the
	// open row must be force-closed.
	done := make([]dram.Time, 64)
	for i := range done {
		i := i
		addr := ch.Geometry().Compose(dram.Address{Bank: 0, Row: 100, Col: i % 16})
		ch.Submit(&Request{Addr: addr, Done: func(at dram.Time) { done[i] = at }})
	}
	var dAlert dram.Time
	submitLine(ch, 0, 1, 100, 0, &dAlert)
	k.RunUntil(10 * dram.Microsecond)
	if aa.serviced == 0 {
		t.Fatal("ALERT never serviced")
	}
	if dAlert == 0 {
		t.Fatal("bank-1 request never completed")
	}
	if rec.forced == 0 {
		t.Fatal("no forced close observed at ALERT stall start")
	}
	if st := ch.SubChannel(0).Stats(); st.PREs != rec.pres[0] {
		t.Errorf("Stats.PREs = %d but observer saw %d precharges: forced closes not routed through precharge",
			st.PREs, rec.pres[0])
	}
}

// preRecorder counts observed precharges per sub-channel and forced closes
// overall.
type preRecorder struct {
	pres   [2]int64
	forced int64
}

func (r *preRecorder) ObserveSubmit(sub int, write bool, now dram.Time) {}
func (r *preRecorder) ObserveACT(sub, bank, row int, now dram.Time)     {}
func (r *preRecorder) ObservePRE(sub, bank int, forced bool, now dram.Time) {
	r.pres[sub]++
	if forced {
		r.forced++
	}
}
func (r *preRecorder) ObserveRead(sub, bank, row int, now dram.Time)         {}
func (r *preRecorder) ObserveWrite(sub, bank, row int, now dram.Time)        {}
func (r *preRecorder) ObserveREF(sub, refIndex int, now dram.Time)           {}
func (r *preRecorder) ObserveRFM(sub, bank int, now dram.Time)               {}
func (r *preRecorder) ObserveAlert(sub int, phase AlertPhase, now dram.Time) {}
