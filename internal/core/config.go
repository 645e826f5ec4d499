// Package core implements MIRZA (Mitigating Rowhammer with Randomization and
// ALERT), the paper's primary contribution: a low-cost reactive in-DRAM
// mitigation combining
//
//   - a Region Count Table (RCT) performing Coarse-Grained Filtering (CGF),
//     which exempts >99% of benign activations from mitigation,
//   - a MINT single-entry randomized sampler over the activations that
//     escape filtering,
//   - a small per-bank queue (MIRZA-Q) with tardiness counters, and
//   - the ALERT-Back-Off (ABO) protocol to reactively obtain mitigation time.
//
// The package also implements the safe RCT reset of Appendix B (via the
// Refreshed-Region-Counter), together with the insecure eager/lazy variants
// used to demonstrate why safe reset is needed.
package core

import (
	"fmt"
	"math/bits"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// ResetPolicy selects how RCT counters are cleared as their region is
// refreshed (Appendix B).
type ResetPolicy int

const (
	// SafeReset copies the RCT entry into the Refreshed-Region-Counter
	// (RRC) when the region's refresh begins, clears the RCT entry, and
	// updates/consults both while the region is mid-refresh. This is
	// MIRZA's secure policy.
	SafeReset ResetPolicy = iota
	// EagerReset clears the RCT entry at the first REF of the region.
	// INSECURE: a row refreshed late in the region can accrue up to
	// 2*(FTH-1) activations without participating in mitigation.
	EagerReset
	// LazyReset clears the RCT entry at the last REF of the region.
	// INSECURE, symmetric to EagerReset for rows refreshed early.
	LazyReset
)

// String implements fmt.Stringer.
func (p ResetPolicy) String() string {
	switch p {
	case SafeReset:
		return "safe"
	case EagerReset:
		return "eager"
	case LazyReset:
		return "lazy"
	default:
		return fmt.Sprintf("ResetPolicy(%d)", int(p))
	}
}

// Config holds all MIRZA design parameters for one sub-channel.
type Config struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping // Row-to-Subarray mapping (strided by default)

	Regions int // RCT entries per bank (regions per bank)
	FTH     int // Filtering Threshold: RCT counts <= FTH are filtered

	MINTWindow int // W: MINT selects 1 of W escaping activations
	QueueSize  int // MIRZA-Q entries per bank (default 4)
	QTH        int // Queue Tardiness Threshold (default 16)

	ResetPolicy ResetPolicy
	Seed        uint64

	// TargetTRHD records the double-sided Rowhammer threshold this
	// configuration was provisioned for (documentation/reporting only).
	TargetTRHD int
}

// DefaultQueueSize and DefaultQTH are the paper's defaults (Section VI.C).
const (
	DefaultQueueSize = 4
	DefaultQTH       = 16
)

// ForTRHD returns the paper's MIRZA configuration (Table VII) for a target
// double-sided threshold. Supported thresholds: 500, 1000, 2000, and 4800
// (the Table XII current-device configuration).
func ForTRHD(trhd int) (Config, error) {
	c := Config{
		Geometry:    dram.Default(),
		Mapping:     dram.StridedR2SA,
		QueueSize:   DefaultQueueSize,
		QTH:         DefaultQTH,
		ResetPolicy: SafeReset,
		TargetTRHD:  trhd,
	}
	switch trhd {
	case 500:
		c.FTH, c.MINTWindow, c.Regions = 660, 8, 256
	case 1000:
		c.FTH, c.MINTWindow, c.Regions = 1500, 12, 128
	case 2000:
		c.FTH, c.MINTWindow, c.Regions = 3330, 16, 64
	case 4800:
		// Table XII: current-threshold configuration with 32 regions and
		// no victim refreshes under REF; FTH chosen to fill the 13-bit
		// counter budget (72 bytes/bank).
		c.FTH, c.MINTWindow, c.Regions = 8186, 36, 32
	default:
		return Config{}, fmt.Errorf("core: no preset MIRZA configuration for TRHD=%d (supported: 500, 1000, 2000, 4800)", trhd)
	}
	return c, nil
}

// Validate reports an error if the configuration is unusable.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	s := c.Geometry.Subarrays()
	switch {
	case c.Regions < 1:
		return fmt.Errorf("core: Regions must be >= 1, got %d", c.Regions)
	case c.Regions <= s && s%c.Regions != 0:
		return fmt.Errorf("core: Regions=%d must divide subarrays=%d", c.Regions, s)
	case c.Regions > s && c.Regions%s != 0:
		return fmt.Errorf("core: Regions=%d must be a multiple of subarrays=%d", c.Regions, s)
	case c.Regions > s && c.Geometry.SubarrayRows*s/c.Regions < c.Geometry.RowsPerREF:
		return fmt.Errorf("core: region smaller than one REF burst")
	case c.FTH < 0:
		return fmt.Errorf("core: FTH must be >= 0, got %d", c.FTH)
	case c.MINTWindow < 1:
		return fmt.Errorf("core: MINT window must be >= 1, got %d", c.MINTWindow)
	case c.MINTWindow < 4:
		// Section V.D: up to 4 ACTs can land between consecutive ALERTs
		// while each ALERT drains only one MIRZA-Q entry per bank, so
		// steady-state insertion must not exceed one per ALERT.
		return fmt.Errorf("core: MINT window must be >= 4 to bound insertions per ALERT (Section V.D), got %d", c.MINTWindow)
	case c.QueueSize < 1:
		return fmt.Errorf("core: queue size must be >= 1, got %d", c.QueueSize)
	case c.QTH < 1:
		return fmt.Errorf("core: QTH must be >= 1, got %d", c.QTH)
	}
	return nil
}

// RegionRows returns the number of rows per region.
func (c Config) RegionRows() int {
	return c.Geometry.RowsPerBank / c.Regions
}

// CounterBits returns the width of one RCT counter: it must represent
// values 0..FTH+1 (the counter saturates at FTH+1).
func (c Config) CounterBits() int {
	return bits.Len(uint(c.FTH + 1))
}

// FixedSRAMBytes is the per-bank overhead besides the RCT: the MIRZA-Q
// (17-bit row id, byte-wide tardiness counter and a valid bit per entry),
// the MINT sampler state (7-bit window count and target, captured row id,
// valid bit), and the RRC register with 11 bits of refresh-position
// bookkeeping. It comes to 20 bytes for the default 4-entry queue,
// matching the paper's 196-byte total at TRHD=1K (176B RCT + 20B).
func (c Config) FixedSRAMBytes() int {
	rowBits := bits.Len(uint(c.Geometry.RowsPerBank - 1))
	queueBits := c.QueueSize * (rowBits + 8 + 1)
	mintBits := 2*7 + rowBits + 1 // count, target, selected row, valid
	rrcBits := c.CounterBits() + 11
	return (queueBits + mintBits + rrcBits + 7) / 8
}

// SRAMBytesPerBank returns the total per-bank SRAM requirement:
// Regions counters of CounterBits each, plus the fixed overhead.
// For the Table VII presets this returns 340/196/116 bytes for TRHD
// 500/1000/2000 and 72 bytes for the TRHD=4800 configuration.
func (c Config) SRAMBytesPerBank() int {
	rct := (c.Regions*c.CounterBits() + 7) / 8
	return rct + c.FixedSRAMBytes()
}

// String summarizes the configuration.
func (c Config) String() string {
	return fmt.Sprintf("MIRZA(TRHD=%d FTH=%d W=%d regions=%d Q=%d QTH=%d %s-R2SA %s-reset)",
		c.TargetTRHD, c.FTH, c.MINTWindow, c.Regions, c.QueueSize, c.QTH, c.Mapping, c.ResetPolicy)
}

// newRNG derives the package RNG from the seed.
func (c Config) newRNG() *stats.RNG {
	return stats.NewRNG(c.Seed ^ 0x4d49525a41) // "MIRZA"
}

var _ = track.MitigationVictims // package coupling documented in mirza.go
