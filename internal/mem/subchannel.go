package mem

import (
	"math/bits"
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/track"
)

// alert protocol states.
const (
	alertIdle = iota
	alertPrologue
	alertStall
)

// SubChannel is one independently scheduled DDR5 sub-channel.
//
// Bank state lives in struct-of-arrays timing planes (DESIGN.md §16)
// rather than a []bankState: each scheduling scan — "oldest request with a
// closed, ready bank", "raise every bank to the REF end" — walks only the
// one or two flat slices it actually reads, and whole-plane updates
// (RaiseAll at REF/ALERT) vectorize over contiguous memory. Set-valued
// bank properties (row open, RFM pending) are dram.BankSets, so emptiness
// tests are word compares and iteration visits only set members.
type SubChannel struct {
	k   *sim.Kernel
	cfg Config
	id  int
	mit track.Mitigator

	// Per-bank planes, indexed by bank.
	openRow    []int32        // open row, -1 when precharged
	openedAt   dram.TimePlane // time of the last ACT
	colReadyAt dram.TimePlane // earliest column command (tRCD after ACT)
	preReadyAt dram.TimePlane // earliest precharge (tRAS / read-to-pre / write recovery)
	actReadyAt dram.TimePlane // earliest next ACT (tRC after ACT, tRP after PRE, RFM/REF end)
	idleAt     dram.TimePlane // time the bank is fully precharged/idle (REF/RFM gating)
	actCounter []int32        // BAT counter for proactive RFM

	open       dram.BankSet // banks with openRow >= 0
	rfmPending dram.BankSet // banks owing a proactive RFM before their next ACT
	rfmCount   int          // popcount of rfmPending, kept for O(1) emptiness

	// The scheduling window (DESIGN.md §21) is the oldest WindowDepth
	// queued requests. They sit in a fixed slot array, linked per bank in
	// age order (bankHead/bankTail, -1 when the bank has none); free slots
	// chain through next from freeSlot. Younger requests wait in overflow,
	// oldest first, and a column issue slides the oldest one in, so the
	// window has room only while overflow is empty.
	slots              []winSlot
	freeSlot           int32
	bankHead, bankTail []int32
	inWindow           int
	overflow           reqRing
	nextEnq            int64

	// queued, hitSet and confSet index the window by bank: banks with a
	// window entry, and open banks with a window entry that hits
	// (conflicts with) the open row. They are kept current as requests
	// enter and leave the window and as banks activate and precharge.
	queued, hitSet, confSet dram.BankSet

	faw       []dram.Time // times of the last 4 ACTs (ring)
	fawIdx    int
	lastActAt dram.Time
	busFreeAt dram.Time

	refDue       dram.Time
	refBusyUntil dram.Time
	refIndex     int

	alertState    int
	alertStallAt  dram.Time
	alertEndAt    dram.Time
	actSinceAlert bool

	// wakeEv is the single persistent scheduler-wake event. It coalesces
	// every wake source — request arrival, bank/bus timing, refresh due,
	// ALERT windows — into one reusable handle: arm() reschedules it to
	// the next provably interesting time and nothing sooner, so an idle
	// sub-channel fast-forwards straight to its next REF with no
	// intermediate events, and submit fires it at the arrival instant
	// through the kernel's O(1) poke lane instead of pulling the slot
	// through the heap and back.
	wakeEv sim.Event
	stats  Stats

	// nextAction is the earliest instant anything can issue, as armed by
	// the last scheduling scan and min-merged with the enable time of
	// every arrival since (see submit). A wake that fires strictly before
	// it is an arrival-coalescing wake: the scheduler re-arms in O(1)
	// instead of scanning, because the merged candidate set already
	// proves the scan would be a no-op.
	nextAction dram.Time

	wakes int64 // kernel wakes delivered (mem_wakes_total)
	steps int64 // step transitions across all wakes (mem_wake_steps_total)

	// scans counts window scans and scanWakes the wakes that ran the
	// priority chain (every wake but an arrival-coalescing one). They
	// describe how the scheduler works, not what it did, so they are
	// never flushed to telemetry; tests read them to pin one scan per
	// scanning wake.
	scans, scanWakes int64

	// obs, when non-nil, shadows every command the sub-channel issues
	// (protocol auditing, test instrumentation). Each command site pays
	// one nil test, the same discipline as teleBankActs.
	obs CommandObserver

	// teleBankActs counts ACTs per bank since the last REF; at each REF
	// every bank's count is observed into teleActHist and reset. Both are
	// nil when telemetry is disabled, so the hot path pays one nil test.
	teleBankActs []int64
	teleActHist  *telemetry.Histogram
}

func newSubChannel(k *sim.Kernel, cfg Config, id int) *SubChannel {
	nb := cfg.Geometry.BanksPerSubChannel
	s := &SubChannel{
		k:             k,
		cfg:           cfg,
		id:            id,
		openRow:       make([]int32, nb),
		openedAt:      dram.NewTimePlane(nb),
		colReadyAt:    dram.NewTimePlane(nb),
		preReadyAt:    dram.NewTimePlane(nb),
		actReadyAt:    dram.NewTimePlane(nb),
		idleAt:        dram.NewTimePlane(nb),
		actCounter:    make([]int32, nb),
		open:          dram.NewBankSet(nb),
		rfmPending:    dram.NewBankSet(nb),
		slots:         make([]winSlot, cfg.WindowDepth),
		bankHead:      make([]int32, nb),
		bankTail:      make([]int32, nb),
		queued:        dram.NewBankSet(nb),
		hitSet:        dram.NewBankSet(nb),
		confSet:       dram.NewBankSet(nb),
		faw:           make([]dram.Time, 4),
		refDue:        cfg.Timing.TREFI,
		actSinceAlert: true,
	}
	s.wakeEv.Bind((*subWake)(s))
	for i := range s.openRow {
		s.openRow[i] = -1
		s.bankHead[i] = -1
		s.bankTail[i] = -1
	}
	for i := range s.slots {
		s.slots[i].next = int32(i) + 1
	}
	s.slots[len(s.slots)-1].next = -1
	for i := range s.faw {
		s.faw[i] = -cfg.Timing.TFAW
	}
	s.lastActAt = -cfg.Timing.TRRD
	sink := track.FuncSink(func(bank, row, victims int, now dram.Time) {
		s.stats.Mitigations++
		s.stats.VictimRows += int64(victims)
	})
	if cfg.NewMitigator != nil {
		s.mit = cfg.NewMitigator(id, sink)
	} else {
		s.mit = track.NewNop()
	}
	if cfg.Telemetry.Enabled() {
		s.teleBankActs = make([]int64, nb)
		s.teleActHist = cfg.Telemetry.Histogram("mem_bank_acts_per_ref", 32, 4,
			telemetry.L("sub", strconv.Itoa(id)))
	}
	// Refresh is self-sustaining: arm the first REF.
	s.arm(s.refDue)
	return s
}

// Stats returns a copy of the sub-channel's counters.
func (s *SubChannel) Stats() Stats { return s.stats }

// Mitigator returns the attached mitigation engine.
func (s *SubChannel) Mitigator() track.Mitigator { return s.mit }

// RefIndex returns the number of REF commands executed so far.
func (s *SubChannel) RefIndex() int { return s.refIndex }

// PendingRequests returns the number of requests still queued on this
// sub-channel (for drain and conservation checks).
func (s *SubChannel) PendingRequests() int { return s.inWindow + s.overflow.n }

func (s *SubChannel) submit(r *Request) {
	if r.Done != nil {
		r.doneEv.Bind((*requestDone)(r))
	}
	r.arrive = s.k.Now()
	r.enqueue = s.nextEnq
	s.nextEnq++
	inWindow := s.inWindow < s.cfg.WindowDepth
	if inWindow {
		s.admit(r)
	} else {
		s.overflow.push(r)
	}
	if s.obs != nil {
		s.obs.ObserveSubmit(s.id, r.Write, r.arrive)
	}
	if c := s.arrivalWake(r.addr.Bank, int32(r.addr.Row), inWindow); c < s.nextAction {
		s.nextAction = c
	}
	// Fire the wake at the submit instant. Unless it is already due right
	// now, poke it: the wake fires with a fresh FIFO sequence number —
	// after every event already queued for this instant, exactly as the
	// old pull-forward Reschedule ordered it — while its heap slot stays
	// parked at the armed time, where the post-wake re-arm moves it with a
	// short fix instead of a full to-now-and-back round trip.
	if !(s.wakeEv.Scheduled() && s.wakeEv.When() <= r.arrive) {
		s.k.PokeNow(&s.wakeEv)
	}
}

// arrivalWake returns the earliest time at which this arrival can change
// the scheduler's next action, for submit to min-merge into nextAction.
// The wake itself still fires at the submit instant — that keeps the
// kernel event sequencing identical to an always-scan controller, which
// closed-loop runs observe through same-instant completion ordering —
// but when the merged time is still in the future the wake re-arms in
// O(1) instead of walking the window and the bank planes.
//
// For an in-window arrival in the normal (unblocked) state, the entry
// only ever *enables* its own command sort: demand precharge at
// preReadyAt for a row conflict, activate at the bank/pacing gates for a
// closed bank — mirrored exactly from scan()'s candidate formulas. Every
// other case must force a full scan at the submit instant (return now),
// because the arrival changes the candidate set in a way a single
// formula does not capture:
//
//   - a row hit vetoes the bank's soft close-page and RFM-precharge
//     candidates, so the armed time may now be too early — only a rescan
//     restores exactness;
//   - while a demand REF is due or executing, or an ALERT stall is
//     pending, the scheduler's next action belongs to the refresh/ALERT
//     machinery, and an arrival flips the idle-through-REF decision —
//     pass() re-decides through armBlocked/passRefresh, which are O(1)
//     and O(banks) respectively, so forcing the scan costs nothing;
//   - beyond the scheduling window the entry is invisible to the command
//     ladder and contributes nothing — the armed time stays exact (the
//     queue was already non-empty, so no idle-through decision flips) and
//     the wake stays lazy.
func (s *SubChannel) arrivalWake(b int, row int32, inWindow bool) dram.Time {
	t := &s.cfg.Timing
	now := s.k.Now()
	if s.alertState == alertStall || now < s.refBusyUntil || s.refDue <= now ||
		s.rfmCount > 0 {
		// Blocked states, a due REF, or a pending proactive RFM: the next
		// action belongs to machinery whose issue rules are more permissive
		// than the armed candidates (the RFM precharge, in particular,
		// overrides the pending-hit veto the arm honours), so only a rescan
		// keeps the armed time exact.
		return now
	}
	if !inWindow {
		return s.nextAction
	}
	switch or := s.openRow[b]; {
	case or == row:
		return now
	case or >= 0:
		if s.hitSet.Test(b) {
			// The open row has a pending hit, which vetoes every precharge
			// candidate on this bank — the armed time may include sorts this
			// conflict cannot unlock; rescan for exactness.
			return now
		}
		// A conflict drops the bank's precharge time from the soft
		// close-page point to preReadyAt.
		return s.preReadyAt[b]
	default:
		at := s.actReadyAt[b]
		if s.idleAt[b] > at {
			at = s.idleAt[b]
		}
		if f := s.faw[s.fawIdx] + t.TFAW; f > at && !debugSkipFAW {
			at = f
		}
		if rr := s.lastActAt + t.TRRD; rr > at {
			at = rr
		}
		return at
	}
}

// winSlot is one scheduling-window entry: the request, its arrival order
// and row, and the next younger slot of the same bank (-1 at the tail).
type winSlot struct {
	r    *Request
	seq  int64
	row  int32
	next int32
}

// admit places r in a free window slot at the tail of its bank's list and
// classifies the bank against it. Requests enter the window in arrival
// order, so every bank list stays in age order.
func (s *SubChannel) admit(r *Request) {
	i := s.freeSlot
	e := &s.slots[i]
	s.freeSlot = e.next
	*e = winSlot{r: r, seq: r.enqueue, row: int32(r.addr.Row), next: -1}
	s.inWindow++
	b := r.addr.Bank
	if tail := s.bankTail[b]; tail >= 0 {
		s.slots[tail].next = i
	} else {
		s.bankHead[b] = i
		s.queued.Set(b)
	}
	s.bankTail[b] = i
	if open := s.openRow[b]; open == e.row {
		s.hitSet.Set(b)
	} else if open >= 0 {
		s.confSet.Set(b)
	}
}

// dequeue removes window slot i, which follows slot prev (-1: none) in
// bank b's list, reclassifies the bank and slides the oldest overflow
// request into the window. The vacated slot is cleared so the retired
// *Request (and its bound done event) does not stay reachable.
func (s *SubChannel) dequeue(b int, i, prev int32) {
	e := &s.slots[i]
	if prev >= 0 {
		s.slots[prev].next = e.next
	} else {
		s.bankHead[b] = e.next
	}
	if s.bankTail[b] == i {
		s.bankTail[b] = prev
	}
	*e = winSlot{next: s.freeSlot}
	s.freeSlot = i
	s.inWindow--
	s.classify(b)
	if s.overflow.n > 0 {
		s.admit(s.overflow.pop())
	}
}

// classify recomputes bank b's membership of queued, hitSet and confSet
// from its window list and open row.
func (s *SubChannel) classify(b int) {
	s.hitSet.Clear(b)
	s.confSet.Clear(b)
	i := s.bankHead[b]
	if i < 0 {
		s.queued.Clear(b)
		return
	}
	open := s.openRow[b]
	if open < 0 {
		return
	}
	for ; i >= 0; i = s.slots[i].next {
		if s.slots[i].row == open {
			s.hitSet.Set(b)
		} else {
			s.confSet.Set(b)
		}
	}
}

// reqRing is a FIFO of requests in a power-of-two ring. It reallocates
// only at a new high-water mark and clears every slot it pops.
type reqRing struct {
	buf     []*Request
	head, n int
}

func (q *reqRing) push(r *Request) {
	if q.n == len(q.buf) {
		buf := make([]*Request, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

func (q *reqRing) pop() *Request {
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// subWake adapts a SubChannel to sim.Handler for its wake event.
type subWake SubChannel

func (w *subWake) Fire(dram.Time) { (*SubChannel)(w).wake() }

func (s *SubChannel) wake() {
	if s.nextAction > s.k.Now() {
		// Arrival-coalescing wake: everything merged into nextAction since
		// the last scan lies strictly in the future, so a scan would issue
		// nothing and re-arm at exactly nextAction — do that re-arm (with
		// this instant's event ordering, like the scan would) and skip the
		// window/bank walk.
		s.wakes++
		if d := debugOpts; d != nil && d.Wake != nil {
			d.Wake(0)
		}
		s.k.Reschedule(&s.wakeEv, s.nextAction)
		return
	}
	s.scanWakes++
	n := 0
	for {
		steps, rescan := s.pass()
		n += steps
		if !rescan {
			break
		}
	}
	s.wakes++
	s.steps += int64(n)
	if d := debugOpts; d != nil && d.Wake != nil {
		d.Wake(n)
	}
}

// arm records the next provably interesting instant and schedules the
// wake there. Every scheduling scan ends here (or in a blocked-state
// equivalent); submit min-merges arrival enable times into nextAction
// between scans. The Reschedule is unconditional — arm always runs as a
// wake concludes, and the fresh FIFO sequence number it assigns is what
// keeps the wake firing after events already queued for the armed
// instant, exactly as the retired pop-and-reschedule shape ordered it.
func (s *SubChannel) arm(at dram.Time) {
	s.nextAction = at
	if at < never {
		s.k.Reschedule(&s.wakeEv, at)
	} else {
		s.k.Cancel(&s.wakeEv)
	}
}

// never is the sentinel "no candidate" wake time.
const never = dram.Time(1) << 62

// pass walks the transition priority chain — ALERT bookkeeping, demand
// REF, ALERT initiation, RFM, then the window's column, precharge and
// activate commands, in that strict order — and reports how many
// transitions it made and whether the wake must rescan. Protocol
// transitions (ALERT, REF, RFM) fire one at a time and always rescan:
// each can change what every later stage sees. The window's commands are
// left to scan, which issues all of them that are due in one call and
// arms the wake, so a wake normally scans the window exactly once.
func (s *SubChannel) pass() (steps int, rescan bool) {
	now := s.k.Now()

	// ALERT protocol bookkeeping.
	switch s.alertState {
	case alertStall:
		if now < s.alertEndAt {
			s.armBlocked(now)
			return 0, false
		}
		// The back-off RFM executed during the stall window; mitigation
		// completes as the stall ends.
		s.mit.ServiceALERT(now)
		s.alertState = alertIdle
		if s.obs != nil {
			s.obs.ObserveAlert(s.id, AlertEnd, now)
		}
		return 1, true
	case alertPrologue:
		if now >= s.alertStallAt {
			// Stall begins: all banks are precharged for the back-off RFM.
			// Open rows are force-closed through precharge so the close is
			// fully accounted (RowPress equivalent-ACT weighting, stats.PREs;
			// see DESIGN.md §12) — these device-side closes may cut tRAS
			// short, which the auditor exempts via the forced flag. The
			// per-bank timers are then raised to the stall end, which always
			// dominates the tRP that precharge just applied (the stall is
			// 350ns, tRP at most 36ns).
			s.open.ForEach(func(b int) { s.precharge(b, now, true) })
			s.actReadyAt.RaiseAll(s.alertEndAt)
			s.idleAt.RaiseAll(s.alertEndAt)
			s.alertState = alertStall
			if s.obs != nil {
				s.obs.ObserveAlert(s.id, AlertStallStart, now)
			}
			return 1, true
		}
	}

	// Sub-channel blocked while a REF executes.
	if now < s.refBusyUntil {
		s.armBlocked(now)
		return 0, false
	}

	// Demand refresh has strict priority once due.
	if now >= s.refDue && s.alertState == alertIdle {
		if s.passRefresh(now) {
			return 1, true
		}
		return 0, false
	}

	if s.alertOwed() {
		s.startAlert(now)
		return 1, true
	}

	// Proactive RFM execution. Wake candidates for still-blocked pending
	// banks need the hit classification after the column issue, so scan
	// collects them.
	if s.rfmCount > 0 {
		t := &s.cfg.Timing
		for wi, w := range s.rfmPending.Words() {
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if s.openRow[b] >= 0 {
					if now >= s.preReadyAt[b] {
						s.precharge(b, now, false)
						return 1, true
					}
					continue
				}
				if now >= s.idleAt[b] {
					s.rfmPending.Clear(b)
					s.rfmCount--
					s.actReadyAt[b] = now + t.TRFM
					s.idleAt[b] = now + t.TRFM
					s.stats.RFMs++
					s.stats.RFMBusy += t.TRFM
					if s.obs != nil {
						s.obs.ObserveRFM(s.id, b, now)
					}
					s.mit.OnRFM(b, now)
					return 1, true
				}
			}
		}
	}

	return s.scan(now)
}

// alertOwed reports whether the controller must start an ALERT now: the
// device asserts it and at least one ACT has issued since the previous
// ALERT completed (the mandatory epilogue activation).
func (s *SubChannel) alertOwed() bool {
	return s.alertState == alertIdle && s.actSinceAlert && s.mit.WantsALERT()
}

// startAlert accepts the device's ALERT request: normal operation
// continues through the prologue, then the channel stalls for the
// back-off RFM.
func (s *SubChannel) startAlert(now dram.Time) {
	t := &s.cfg.Timing
	s.alertState = alertPrologue
	s.alertStallAt = now + t.ABOPrologue
	s.alertEndAt = s.alertStallAt + t.ABOStall
	s.actSinceAlert = false
	s.stats.Alerts++
	s.stats.AlertStall += t.ABOStall
	if s.obs != nil {
		s.obs.ObserveAlert(s.id, AlertPrologueStart, now)
	}
}

// scan issues every command the chain of single-command passes would
// issue at this instant and in the same order — the oldest ready column,
// then the due precharges in bank order, then the oldest eligible
// activate — and arms the wake at the earliest future candidate. It
// decides from bank-level minima over the window index (DESIGN.md §21),
// so its cost follows the banks, not the window depth. None of these
// commands can enable a protocol transition of higher priority except
// through the tracker (DESIGN.md §19), so continuing past an issue is
// exact. The tracker sees an activate, so scan polls for an owed ALERT
// right after one and, if owed, starts it and asks for a rescan; a
// RowPress precharge reports equivalent ACTs, so scan always rescans
// after one.
//
// Candidates fold per bank class: a hit waits for max(colReadyAt, bus),
// a closed bank for max(bank ready, tFAW, tRRD), and max distributes
// over min, so one minimum per class plus the gates as they stand after
// the issues is the exact earliest instant.
func (s *SubChannel) scan(now dram.Time) (steps int, rescan bool) {
	t := &s.cfg.Timing
	s.scans++

	next := never
	if s.alertState == alertPrologue {
		next = s.alertStallAt
	}
	if s.refDue > now && s.refDue < next {
		next = s.refDue // refresh is self-sustaining
	}

	// Reslicing every timing plane to the openRow length lets the first
	// openRow[b] access prove b in range for the rest.
	openRow := s.openRow
	colReadyAt := s.colReadyAt[:len(openRow)]
	actReadyAt := s.actReadyAt[:len(openRow)]
	idleAt := s.idleAt[:len(openRow)]
	slots := s.slots

	// Column: the oldest row hit on a bank past tRCD, if the bus is free.
	// Each hit bank's first hit in its age-ordered list is its oldest.
	if s.busFreeAt <= now+t.TCL {
		col, colPrev, colBank := int32(-1), int32(-1), -1
		var colSeq int64
		for wi, w := range s.hitSet.Words() {
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if open := openRow[b]; colReadyAt[b] <= now {
					prev, i := int32(-1), s.bankHead[b]
					for slots[i].row != open {
						prev, i = i, slots[i].next
					}
					if col < 0 || slots[i].seq < colSeq {
						col, colPrev, colBank, colSeq = i, prev, b, slots[i].seq
					}
				}
			}
		}
		if col >= 0 {
			// A posted write's Done runs inside the issue. It may recycle
			// the request and submit to this sub-channel before it
			// returns, so the slot and bank are captured first and the
			// dequeue follows the issue: such a submission still counts
			// the issued entry, and the dequeue then slides the oldest
			// overflow request in, keeping admission in arrival order.
			s.issueColumn(slots[col].r, colBank, now)
			s.dequeue(colBank, col, colPrev)
			steps++
		}
	}

	// RFM wake candidates: a pending bank fires at preReady (open, no
	// hit) or at idle (closed). The precharges and the activate below
	// leave them exact: a pending open bank is never due for a demand
	// precharge (the RFM stage would have closed it), and a bank the
	// activate makes pending holds a hit.
	hitW := s.hitSet.Words()
	if s.rfmCount > 0 {
		for wi, w := range s.rfmPending.Words() {
			hw := hitW[wi]
			for base := wi << 6; w != 0; w &= w - 1 {
				b := base + bits.TrailingZeros64(w)
				if openRow[b] >= 0 {
					if hw&(w&-w) == 0 && s.preReadyAt[b] < next {
						next = s.preReadyAt[b]
					}
				} else if idleAt[b] < next {
					next = idleAt[b]
				}
			}
		}
	}

	// Precharge, in bank order: oldest-conflict demand or soft close-page
	// after tRAS. A non-issuable open bank contributes its close time —
	// immediately at preReady for a pending conflict, the soft close-page
	// point otherwise — as a wake candidate. Hit-bearing banks are masked
	// out wholesale (soft close-page: pending hits are served first). A
	// precharged conflict bank's window entries become closed-bank
	// candidates below; one closed by soft close-page has no entries.
	confW := s.confSet.Words()
	for wi, w := range s.open.Words() {
		w &^= hitW[wi]
		cw := confW[wi]
		for base := wi << 6; w != 0; w &= w - 1 {
			b := base + bits.TrailingZeros64(w)
			conf := cw&(w&-w) != 0
			if now >= s.preReadyAt[b] && (conf || now-s.openedAt[b] >= t.TRAS) {
				s.precharge(b, now, false)
				steps++
				if s.cfg.RowPressWeighting {
					return steps, true
				}
				continue
			}
			at := s.preReadyAt[b]
			if !conf && s.openedAt[b]+t.TRAS > at {
				at = s.openedAt[b] + t.TRAS
			}
			if at < next {
				next = at
			}
		}
	}

	// Activate: the oldest head among closed banks that are ready and owe
	// no RFM. Every other closed bank with window entries is a wake
	// candidate at its ready time.
	act, actBank := int32(-1), -1
	var actSeq int64
	var actAt dram.Time
	closedAt := never
	openW := s.open.Words()
	for wi, w := range s.queued.Words() {
		for w &^= openW[wi]; w != 0; w &= w - 1 {
			b := wi<<6 + bits.TrailingZeros64(w)
			at := max(actReadyAt[b], idleAt[b])
			if h := s.bankHead[b]; now >= at && !s.rfmPending.Test(b) && (act < 0 || slots[h].seq < actSeq) {
				if act >= 0 {
					closedAt = min(closedAt, actAt)
				}
				act, actBank, actSeq, actAt = h, b, slots[h].seq, at
				continue
			}
			closedAt = min(closedAt, at)
		}
	}

	// The activate is gated by the channel-level ACT pacing (tRRD and the
	// four-activation window). The bank then holds a hit, and the pacing
	// gates move past now.
	skipFAW := debugSkipFAW
	trrdGate := s.lastActAt + t.TRRD
	fawGate := s.faw[s.fawIdx] + t.TFAW
	if act >= 0 {
		if now >= trrdGate && (skipFAW || now >= fawGate) {
			s.activate(actBank, int(slots[act].row), now)
			steps++
			if s.alertOwed() {
				s.startAlert(now)
				return steps + 1, true
			}
			trrdGate = s.lastActAt + t.TRRD
			fawGate = s.faw[s.fawIdx] + t.TFAW
		} else {
			closedAt = min(closedAt, actAt)
		}
	}

	// Hits fold over the window as the issues left it: entries that slid
	// in or were submitted during the column issue count, and so does the
	// bank just activated.
	hitAt := never
	for wi, w := range hitW {
		for base := wi << 6; w != 0; w &= w - 1 {
			hitAt = min(hitAt, colReadyAt[base+bits.TrailingZeros64(w)])
		}
	}

	if hitAt < never {
		next = min(next, max(hitAt, s.busFreeAt-t.TCL))
	}
	if closedAt < never {
		if !skipFAW {
			closedAt = max(closedAt, fawGate)
		}
		next = min(next, max(closedAt, trrdGate))
	}

	if next < never && next <= now {
		// Defensive only: an on-time candidate cannot reach here (it
		// would have issued above); the clamp keeps the wake monotonic
		// regardless.
		next = now + dram.Picosecond
	}
	s.arm(next)
	return steps, false
}

// armBlocked arms the wake while the sub-channel cannot issue at all (an
// ALERT prologue/stall wait or a REF busy window). No bank or queue scan
// is needed: REF raised every bank timer to at least refBusyUntil and
// closed every row, so every command candidate lands at or after the
// block ends — only the block end itself, the next REF, and the idle
// fast-forward decision matter.
func (s *SubChannel) armBlocked(now dram.Time) {
	next := never
	switch s.alertState {
	case alertPrologue:
		next = s.alertStallAt
	case alertStall:
		next = s.alertEndAt
	}
	if now < s.refBusyUntil {
		// The wake at refBusyUntil exists only to resume work the REF
		// blocked. With provably nothing to resume — no queued requests,
		// no pending RFM, no ALERT initiation owed, no open rows (there
		// cannot be: REF requires all banks idle) — the next interesting
		// time is refDue itself, so skip the intermediate wake and let the
		// sub-channel sleep a whole tREFI. Mitigator state cannot change
		// during the busy window (it only sees ACT/REF/RFM events, and
		// none issue before refBusyUntil), so WantsALERT sampled here
		// holds until then.
		idleThrough := s.inWindow == 0 && s.rfmCount == 0 &&
			!s.alertOwed() &&
			s.refDue > s.refBusyUntil && s.open.None()
		if !idleThrough && s.refBusyUntil < next {
			next = s.refBusyUntil
		}
	}
	if s.refDue > now && s.refDue < next {
		next = s.refDue
	}
	s.arm(next)
}

// passRefresh makes progress toward (or executes) a due REF; while the
// REF is gated it arms the wake at the gating bank's time.
func (s *SubChannel) passRefresh(now dram.Time) bool {
	t := &s.cfg.Timing
	g := &s.cfg.Geometry
	if !s.open.None() {
		// Close open rows first; the earliest preReady bank goes now.
		// Banks already closed still gate the REF through idleAt (tRP,
		// RFM), so the latest of those is a candidate too.
		next := never
		var latestIdle dram.Time
		for b := range s.openRow {
			if s.openRow[b] >= 0 {
				if now >= s.preReadyAt[b] {
					s.precharge(b, now, false)
					return true
				}
				if s.preReadyAt[b] < next {
					next = s.preReadyAt[b]
				}
			} else if s.idleAt[b] > latestIdle {
				latestIdle = s.idleAt[b]
			}
		}
		if latestIdle > now && latestIdle < next {
			next = latestIdle
		}
		s.arm(next)
		return false
	}
	if m := s.idleAt.Max(); now < m {
		s.arm(m)
		return false
	}
	// Execute the all-bank REF.
	s.refBusyUntil = now + t.TRFC
	s.actReadyAt.RaiseAll(s.refBusyUntil)
	s.idleAt.RaiseAll(s.refBusyUntil)
	s.stats.REFs++
	s.stats.RefBusy += t.TRFC
	s.stats.DemandRefreshRows += int64(g.RowsPerREF) * int64(g.BanksPerSubChannel)
	if s.teleBankActs != nil {
		for b, acts := range s.teleBankActs {
			s.teleActHist.Observe(float64(acts))
			s.teleBankActs[b] = 0
		}
	}
	if s.obs != nil {
		s.obs.ObserveREF(s.id, s.refIndex, now)
	}
	s.mit.OnREF(s.refIndex, now) // 0-based position in the refresh walk
	s.refIndex++
	s.refDue += t.TREFI
	return true
}

// precharge closes the row open in bank. forced marks a device-side close
// during the ALERT prologue→stall transition, which is exempt from the
// controller-side row-cycle minimums (tRAS/tRTP/tWR) but still counted in
// stats.PREs and still subject to RowPress equivalent-ACT weighting.
func (s *SubChannel) precharge(bank int, now dram.Time, forced bool) {
	t := &s.cfg.Timing
	if s.cfg.RowPressWeighting && s.openRow[bank] >= 0 {
		// RowPress mitigation (Section II.A): a long-open row disturbs
		// its neighbours like extra activations; report one equivalent
		// ACT to the tracker per additional tRAS the row stayed open.
		extra := int((now-s.openedAt[bank])/t.TRAS) - 1
		if extra > 8 {
			extra = 8
		}
		for i := 0; i < extra; i++ {
			s.mit.OnActivate(bank, int(s.openRow[bank]), now)
		}
	}
	s.openRow[bank] = -1
	s.open.Clear(bank)
	s.hitSet.Clear(bank)
	s.confSet.Clear(bank)
	s.actReadyAt.Raise(bank, now+t.TRP)
	s.idleAt[bank] = now + t.TRP
	s.stats.PREs++
	if s.obs != nil {
		s.obs.ObservePRE(s.id, bank, forced, now)
	}
}

func (s *SubChannel) activate(bank, row int, now dram.Time) {
	t := &s.cfg.Timing
	s.openRow[bank] = int32(row)
	s.open.Set(bank)
	s.classify(bank)
	s.openedAt[bank] = now
	s.colReadyAt[bank] = now + t.TRCD
	s.preReadyAt[bank] = now + t.TRAS
	s.actReadyAt[bank] = now + t.TRC
	s.faw[s.fawIdx] = now
	s.fawIdx = (s.fawIdx + 1) % len(s.faw)
	s.lastActAt = now
	s.stats.ACTs++
	s.actSinceAlert = true
	if s.teleBankActs != nil {
		s.teleBankActs[bank]++
	}

	if s.cfg.RFMBAT > 0 {
		s.actCounter[bank]++
		if int(s.actCounter[bank]) >= s.cfg.RFMBAT {
			s.actCounter[bank] = 0
			if !s.rfmPending.Test(bank) {
				s.rfmPending.Set(bank)
				s.rfmCount++
			}
		}
	}
	if s.obs != nil {
		s.obs.ObserveACT(s.id, bank, row, now)
	}
	s.mit.OnActivate(bank, row, now)
}

func (s *SubChannel) issueColumn(r *Request, bank int, now dram.Time) {
	t := &s.cfg.Timing
	dataDone := now + t.TCL + t.TBUS
	s.busFreeAt = dataDone
	s.stats.BusBusy += t.TBUS
	if s.openedAt[bank] <= r.arrive {
		// The row was already open when the request arrived.
		s.stats.RowHits++
	} else {
		s.stats.RowMisses++
	}
	if r.Write {
		s.stats.Writes++
		s.preReadyAt.Raise(bank, dataDone+t.TWR)
		if s.obs != nil {
			s.obs.ObserveWrite(s.id, r.addr.Bank, r.addr.Row, now)
		}
		if r.Done != nil {
			r.Done(now) // posted write
		}
		return
	}
	s.stats.Reads++
	s.preReadyAt.Raise(bank, now+t.TRTP)
	if s.obs != nil {
		s.obs.ObserveRead(s.id, r.addr.Bank, r.addr.Row, now)
	}
	if r.Done != nil {
		s.k.ScheduleEvent(&r.doneEv, dataDone)
	}
}
