package mem

import (
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/telemetry"
	"mirza/internal/track"
)

// This file preserves the pre-redesign command path — array-of-structs
// bank state, per-bank boolean scratch arrays, a wake at every timing
// boundary — verbatim (minus the debug hooks, which were nil in
// production), as a reference model: the differential property tests
// check that the struct-of-arrays fast-forward path issues exactly the
// command stream the old implementation did. Test-only: it is never
// linked into production binaries.

// legacyBankState is the old controller view of one DRAM bank.
type legacyBankState struct {
	openRow    int
	openedAt   dram.Time
	colReadyAt dram.Time
	preReadyAt dram.Time
	actReadyAt dram.Time
	idleAt     dram.Time
	rfmPending bool
	actCounter int
}

// LegacySubChannel is the pre-redesign sub-channel, kept as the reference
// model.
type LegacySubChannel struct {
	k   *sim.Kernel
	cfg Config
	id  int
	mit track.Mitigator

	banks   []legacyBankState
	queue   []*Request
	nextEnq int64

	faw       []dram.Time
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

	wakeEv sim.Event
	stats  Stats

	hitBank, conflictBank []bool

	obs CommandObserver

	teleBankActs []int64
	teleActHist  *telemetry.Histogram
}

func newLegacySubChannel(k *sim.Kernel, cfg Config, id int) *LegacySubChannel {
	s := &LegacySubChannel{
		k:             k,
		cfg:           cfg,
		id:            id,
		banks:         make([]legacyBankState, cfg.Geometry.BanksPerSubChannel),
		hitBank:       make([]bool, cfg.Geometry.BanksPerSubChannel),
		conflictBank:  make([]bool, cfg.Geometry.BanksPerSubChannel),
		faw:           make([]dram.Time, 4),
		refDue:        cfg.Timing.TREFI,
		actSinceAlert: true,
	}
	s.wakeEv.Bind((*legacySubWake)(s))
	for i := range s.banks {
		s.banks[i].openRow = -1
	}
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
		s.teleBankActs = make([]int64, cfg.Geometry.BanksPerSubChannel)
		s.teleActHist = cfg.Telemetry.Histogram("mem_bank_acts_per_ref", 32, 4,
			telemetry.L("sub", strconv.Itoa(id)))
	}
	s.requestWake(s.refDue)
	return s
}

// Stats returns a copy of the sub-channel's counters.
func (s *LegacySubChannel) Stats() Stats { return s.stats }

func (s *LegacySubChannel) submit(r *Request) {
	if r.Done != nil {
		r.doneEv.Bind((*requestDone)(r))
	}
	r.arrive = s.k.Now()
	r.enqueue = s.nextEnq
	s.nextEnq++
	s.queue = append(s.queue, r)
	if s.obs != nil {
		s.obs.ObserveSubmit(s.id, r.Write, r.arrive)
	}
	s.requestWake(s.k.Now())
}

type legacySubWake LegacySubChannel

func (w *legacySubWake) Fire(dram.Time) { (*LegacySubChannel)(w).wake() }

func (s *LegacySubChannel) requestWake(at dram.Time) {
	now := s.k.Now()
	if at < now {
		at = now
	}
	if s.wakeEv.Scheduled() && s.wakeEv.When() <= at {
		return
	}
	s.k.Reschedule(&s.wakeEv, at)
}

func (s *LegacySubChannel) wake() {
	for s.step() {
	}
	s.arm()
}

func (s *LegacySubChannel) step() bool {
	now := s.k.Now()
	t := &s.cfg.Timing

	switch s.alertState {
	case alertStall:
		if now < s.alertEndAt {
			return false
		}
		s.mit.ServiceALERT(now)
		s.alertState = alertIdle
		if s.obs != nil {
			s.obs.ObserveAlert(s.id, AlertEnd, now)
		}
		return true
	case alertPrologue:
		if now >= s.alertStallAt {
			for b := range s.banks {
				bk := &s.banks[b]
				if bk.openRow >= 0 {
					s.precharge(b, now, true)
				}
				if bk.actReadyAt < s.alertEndAt {
					bk.actReadyAt = s.alertEndAt
				}
				if bk.idleAt < s.alertEndAt {
					bk.idleAt = s.alertEndAt
				}
			}
			s.alertState = alertStall
			if s.obs != nil {
				s.obs.ObserveAlert(s.id, AlertStallStart, now)
			}
			return true
		}
	}

	if now < s.refBusyUntil {
		return false
	}

	if now >= s.refDue && s.alertState == alertIdle {
		return s.stepRefresh(now)
	}

	if s.alertState == alertIdle && s.actSinceAlert && s.mit.WantsALERT() {
		s.alertState = alertPrologue
		s.alertStallAt = now + t.ABOPrologue
		s.alertEndAt = s.alertStallAt + t.ABOStall
		s.actSinceAlert = false
		s.stats.Alerts++
		s.stats.AlertStall += t.ABOStall
		if s.obs != nil {
			s.obs.ObserveAlert(s.id, AlertPrologueStart, now)
		}
		return true
	}

	for b := range s.banks {
		bk := &s.banks[b]
		if !bk.rfmPending {
			continue
		}
		if bk.openRow >= 0 {
			if now >= bk.preReadyAt {
				s.precharge(b, now, false)
				return true
			}
			continue
		}
		if now >= bk.idleAt {
			bk.rfmPending = false
			bk.actReadyAt = now + t.TRFM
			bk.idleAt = now + t.TRFM
			s.stats.RFMs++
			s.stats.RFMBusy += t.TRFM
			if s.obs != nil {
				s.obs.ObserveRFM(s.id, b, now)
			}
			s.mit.OnRFM(b, now)
			return true
		}
	}

	window := s.queue
	if len(window) > s.cfg.WindowDepth {
		window = window[:s.cfg.WindowDepth]
	}

	for i, r := range window {
		bk := &s.banks[r.addr.Bank]
		if bk.openRow != r.addr.Row || now < bk.colReadyAt {
			continue
		}
		if s.busFreeAt > now+t.TCL {
			continue
		}
		s.issueColumn(r, bk, now)
		copy(s.queue[i:], s.queue[i+1:])
		s.queue[len(s.queue)-1] = nil
		s.queue = s.queue[:len(s.queue)-1]
		return true
	}

	for b := range s.banks {
		bk := &s.banks[b]
		if bk.openRow < 0 || now < bk.preReadyAt {
			continue
		}
		hasHit, hasConflict := false, false
		for _, r := range window {
			if r.addr.Bank != b {
				continue
			}
			if r.addr.Row == bk.openRow {
				hasHit = true
				break
			}
			hasConflict = true
		}
		if hasHit {
			continue
		}
		if hasConflict || now-bk.openedAt >= t.TRAS {
			s.precharge(b, now, false)
			return true
		}
	}

	for _, r := range window {
		bk := &s.banks[r.addr.Bank]
		if bk.openRow >= 0 || bk.rfmPending {
			continue
		}
		if now < bk.actReadyAt || now < bk.idleAt {
			continue
		}
		if now < s.lastActAt+t.TRRD {
			break
		}
		if now < s.faw[s.fawIdx]+t.TFAW {
			break
		}
		s.activate(r.addr.Bank, r.addr.Row, now)
		return true
	}

	return false
}

func (s *LegacySubChannel) stepRefresh(now dram.Time) bool {
	t := &s.cfg.Timing
	g := &s.cfg.Geometry
	allIdle := true
	var latestIdle dram.Time
	for b := range s.banks {
		bk := &s.banks[b]
		if bk.openRow >= 0 {
			allIdle = false
			if now >= bk.preReadyAt {
				s.precharge(b, now, false)
				return true
			}
			continue
		}
		if bk.idleAt > latestIdle {
			latestIdle = bk.idleAt
		}
	}
	if !allIdle || now < latestIdle {
		return false
	}
	s.refBusyUntil = now + t.TRFC
	for b := range s.banks {
		bk := &s.banks[b]
		if bk.actReadyAt < s.refBusyUntil {
			bk.actReadyAt = s.refBusyUntil
		}
		if bk.idleAt < s.refBusyUntil {
			bk.idleAt = s.refBusyUntil
		}
	}
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
	s.mit.OnREF(s.refIndex, now)
	s.refIndex++
	s.refDue += t.TREFI
	return true
}

func (s *LegacySubChannel) precharge(bank int, now dram.Time, forced bool) {
	t := &s.cfg.Timing
	bk := &s.banks[bank]
	if s.cfg.RowPressWeighting && bk.openRow >= 0 {
		extra := int((now-bk.openedAt)/t.TRAS) - 1
		if extra > 8 {
			extra = 8
		}
		for i := 0; i < extra; i++ {
			s.mit.OnActivate(bank, bk.openRow, now)
		}
	}
	bk.openRow = -1
	if bk.actReadyAt < now+t.TRP {
		bk.actReadyAt = now + t.TRP
	}
	bk.idleAt = now + t.TRP
	s.stats.PREs++
	if s.obs != nil {
		s.obs.ObservePRE(s.id, bank, forced, now)
	}
}

func (s *LegacySubChannel) activate(bank, row int, now dram.Time) {
	t := &s.cfg.Timing
	bk := &s.banks[bank]
	bk.openRow = row
	bk.openedAt = now
	bk.colReadyAt = now + t.TRCD
	bk.preReadyAt = now + t.TRAS
	bk.actReadyAt = now + t.TRC
	s.faw[s.fawIdx] = now
	s.fawIdx = (s.fawIdx + 1) % len(s.faw)
	s.lastActAt = now
	s.stats.ACTs++
	s.actSinceAlert = true
	if s.teleBankActs != nil {
		s.teleBankActs[bank]++
	}

	if s.cfg.RFMBAT > 0 {
		bk.actCounter++
		if bk.actCounter >= s.cfg.RFMBAT {
			bk.actCounter = 0
			bk.rfmPending = true
		}
	}
	if s.obs != nil {
		s.obs.ObserveACT(s.id, bank, row, now)
	}
	s.mit.OnActivate(bank, row, now)
}

func (s *LegacySubChannel) issueColumn(r *Request, bk *legacyBankState, now dram.Time) {
	t := &s.cfg.Timing
	dataDone := now + t.TCL + t.TBUS
	s.busFreeAt = dataDone
	s.stats.BusBusy += t.TBUS
	if bk.openedAt <= r.arrive {
		s.stats.RowHits++
	} else {
		s.stats.RowMisses++
	}
	if r.Write {
		s.stats.Writes++
		if bk.preReadyAt < dataDone+t.TWR {
			bk.preReadyAt = dataDone + t.TWR
		}
		if s.obs != nil {
			s.obs.ObserveWrite(s.id, r.addr.Bank, r.addr.Row, now)
		}
		if r.Done != nil {
			r.Done(now)
		}
		return
	}
	s.stats.Reads++
	if bk.preReadyAt < now+t.TRTP {
		bk.preReadyAt = now + t.TRTP
	}
	if s.obs != nil {
		s.obs.ObserveRead(s.id, r.addr.Bank, r.addr.Row, now)
	}
	if r.Done != nil {
		s.k.ScheduleEvent(&r.doneEv, dataDone)
	}
}

func (s *LegacySubChannel) arm() {
	now := s.k.Now()
	t := &s.cfg.Timing
	const never = dram.Time(1) << 62
	next := never

	consider := func(at dram.Time, label string) {
		if at <= now {
			at = now + dram.Picosecond
		}
		if at < next {
			next = at
		}
	}

	switch s.alertState {
	case alertPrologue:
		consider(s.alertStallAt, "alertStallAt")
	case alertStall:
		consider(s.alertEndAt, "alertEndAt")
	}
	if now < s.refBusyUntil {
		consider(s.refBusyUntil, "refBusy")
	}
	if s.refDue > now {
		consider(s.refDue, "refDue")
	}

	refPending := now >= s.refDue && s.alertState == alertIdle && now >= s.refBusyUntil
	if refPending {
		var latestIdle dram.Time
		for b := range s.banks {
			bk := &s.banks[b]
			if bk.openRow >= 0 {
				consider(bk.preReadyAt, "ref-pre")
			} else if bk.idleAt > latestIdle {
				latestIdle = bk.idleAt
			}
		}
		if latestIdle > now {
			consider(latestIdle, "ref-idle")
		}
		if next < never {
			s.requestWake(next)
		}
		return
	}

	if s.alertState == alertStall {
		s.requestWake(next)
		return
	}

	window := s.queue
	if len(window) > s.cfg.WindowDepth {
		window = window[:s.cfg.WindowDepth]
	}
	hitBank, conflictBank := s.hitBank, s.conflictBank
	for i := range hitBank {
		hitBank[i] = false
		conflictBank[i] = false
	}
	for _, r := range window {
		bk := &s.banks[r.addr.Bank]
		if bk.openRow == r.addr.Row {
			hitBank[r.addr.Bank] = true
		} else if bk.openRow >= 0 {
			conflictBank[r.addr.Bank] = true
		}
	}

	for b := range s.banks {
		bk := &s.banks[b]
		if bk.rfmPending {
			if bk.openRow >= 0 {
				if !hitBank[b] {
					consider(bk.preReadyAt, "rfm-pre")
				}
			} else {
				consider(bk.idleAt, "rfm-idle")
			}
		}
		if bk.openRow >= 0 && !hitBank[b] {
			at := bk.preReadyAt
			if !conflictBank[b] && bk.openedAt+t.TRAS > at {
				at = bk.openedAt + t.TRAS
			}
			consider(at, "pre")
		}
	}
	for _, r := range window {
		bk := &s.banks[r.addr.Bank]
		switch {
		case bk.openRow == r.addr.Row:
			at := bk.colReadyAt
			if s.busFreeAt-t.TCL > at {
				at = s.busFreeAt - t.TCL
			}
			consider(at, "col")
		case bk.openRow >= 0:
			if !hitBank[r.addr.Bank] {
				consider(bk.preReadyAt, "conf-pre")
			}
		default:
			at := bk.actReadyAt
			if bk.idleAt > at {
				at = bk.idleAt
			}
			if f := s.faw[s.fawIdx] + t.TFAW; f > at {
				at = f
			}
			if rr := s.lastActAt + t.TRRD; rr > at {
				at = rr
			}
			consider(at, "act")
		}
	}

	if next < never {
		s.requestWake(next)
	}
}

// LegacyChannel is the pre-redesign channel: the same geometry/address
// plumbing over LegacySubChannels.
type LegacyChannel struct {
	cfg  Config
	subs []*LegacySubChannel
}

// NewLegacyChannel builds the reference channel on kernel k.
func NewLegacyChannel(k *sim.Kernel, cfg Config) (*LegacyChannel, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ch := &LegacyChannel{cfg: cfg}
	for i := 0; i < cfg.Geometry.SubChannels; i++ {
		ch.subs = append(ch.subs, newLegacySubChannel(k, cfg, i))
	}
	return ch, nil
}

// Geometry returns the channel's geometry.
func (ch *LegacyChannel) Geometry() dram.Geometry { return ch.cfg.Geometry }

// Submit enqueues a request.
func (ch *LegacyChannel) Submit(r *Request) {
	r.addr = ch.cfg.Geometry.DecomposeWith(ch.cfg.AddrMapping, r.Addr)
	ch.subs[r.addr.SubChannel].submit(r)
}

// InstallObserver attaches obs to every sub-channel.
func (ch *LegacyChannel) InstallObserver(obs CommandObserver) {
	for _, s := range ch.subs {
		s.obs = obs
	}
}

// Stats returns the sum of all sub-channel stats.
func (ch *LegacyChannel) Stats() Stats {
	var total Stats
	for _, s := range ch.subs {
		total.Add(s.stats)
	}
	return total
}

// PendingRequests returns the number of requests still queued.
func (ch *LegacyChannel) PendingRequests() int {
	n := 0
	for _, s := range ch.subs {
		n += len(s.queue)
	}
	return n
}
