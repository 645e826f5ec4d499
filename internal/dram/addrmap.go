package dram

import (
	"fmt"
	"math/bits"
)

// AddressMapping selects how physical addresses spread over the channel's
// banks and rows. The paper's baseline is Minimalist Open Page with 4 lines
// per row visit (MOP4, Table III); the alternatives exist for the ablation
// bench that justifies that choice.
type AddressMapping int

const (
	// MOP4Mapping is the default: 4 consecutive lines per row visit, then
	// stripe across sub-channels and banks (Kaseridis et al., MICRO'11).
	MOP4Mapping AddressMapping = iota
	// LineInterleaved stripes every single line across sub-channels and
	// banks: maximal bank parallelism, minimal row-buffer locality.
	LineInterleaved
	// RowInterleaved keeps a whole DRAM row's worth of lines consecutive
	// before switching banks: maximal locality, minimal parallelism (an
	// open-page policy's best friend and a bank conflict's worst enemy).
	RowInterleaved
)

// String implements fmt.Stringer.
func (m AddressMapping) String() string {
	switch m {
	case MOP4Mapping:
		return "mop4"
	case LineInterleaved:
		return "line-interleaved"
	case RowInterleaved:
		return "row-interleaved"
	default:
		return fmt.Sprintf("AddressMapping(%d)", int(m))
	}
}

// groupLines returns how many consecutive lines mapping m keeps in one row
// visit before striping to the next sub-channel.
func (g Geometry) groupLines(m AddressMapping) int {
	switch m {
	case LineInterleaved:
		return 1
	case RowInterleaved:
		return g.LinesPerRow()
	default:
		return g.MOPLines
	}
}

// Decoder maps physical addresses to DRAM locations under one mapping of
// one geometry. The layout is a mixed-radix split of the line index:
// column-within-group, sub-channel, bank, group-within-row, row. A decoder
// is built once and reused per access: when every radix is a power of two
// (the Table III default) it splits with shifts and masks, otherwise with
// hardware division. Both forms return the same Address.
type Decoder struct {
	pow2 bool

	// Shift-and-mask form: line = phys >> lineShift, and each field is
	// line >> its shift & its mask. Col = colHigh << groupShift | colLow.
	lineShift, groupShift, scShift, bankShift, colShift, rowShift uint
	groupMask, scMask, bankMask, colMask, rowMask                 uint64

	// Division form: the radices themselves.
	lineBytes, group, subs, banks, groups, rows uint64
}

// Decoder returns the decoder of mapping m over g, which must be valid
// (see Validate).
func (g Geometry) Decoder(m AddressMapping) Decoder {
	group := g.groupLines(m)
	d := Decoder{
		lineBytes: uint64(g.LineBytes),
		group:     uint64(group),
		subs:      uint64(g.SubChannels),
		banks:     uint64(g.BanksPerSubChannel),
		groups:    uint64(g.LinesPerRow() / group),
		rows:      uint64(g.RowsPerBank),
	}
	d.pow2 = true
	for _, n := range [...]uint64{d.lineBytes, d.group, d.subs, d.banks, d.groups, d.rows} {
		d.pow2 = d.pow2 && n&(n-1) == 0
	}
	if !d.pow2 {
		return d
	}
	log2 := func(n uint64) uint { return uint(bits.TrailingZeros64(n)) }
	d.lineShift = log2(d.lineBytes)
	d.groupShift = log2(d.group)
	d.scShift = d.groupShift
	d.bankShift = d.scShift + log2(d.subs)
	d.colShift = d.bankShift + log2(d.banks)
	d.rowShift = d.colShift + log2(d.groups)
	d.groupMask, d.scMask, d.bankMask, d.colMask, d.rowMask = d.group-1, d.subs-1, d.banks-1, d.groups-1, d.rows-1
	return d
}

// Decompose maps a physical line-aligned byte address to its DRAM location.
func (d *Decoder) Decompose(phys uint64) Address {
	if d.pow2 {
		line := phys >> d.lineShift
		return Address{
			SubChannel: int((line >> d.scShift) & d.scMask),
			Bank:       int((line >> d.bankShift) & d.bankMask),
			Row:        int((line >> d.rowShift) & d.rowMask),
			Col:        int(((line>>d.colShift)&d.colMask)<<d.groupShift | line&d.groupMask),
		}
	}
	line := phys / d.lineBytes
	colLow := line % d.group
	line /= d.group
	sc := line % d.subs
	line /= d.subs
	bank := line % d.banks
	line /= d.banks
	colHigh := line % d.groups
	line /= d.groups
	return Address{
		SubChannel: int(sc),
		Bank:       int(bank),
		Row:        int(line % d.rows),
		Col:        int(colHigh*d.group + colLow),
	}
}

// DecomposeWith maps a physical line-aligned byte address to its DRAM
// location under the chosen mapping. Per-access callers build a Decoder
// once instead.
func (g Geometry) DecomposeWith(m AddressMapping, phys uint64) Address {
	d := g.Decoder(m)
	return d.Decompose(phys)
}

// ComposeWith is the inverse of DecomposeWith.
func (g Geometry) ComposeWith(m AddressMapping, a Address) uint64 {
	group := g.groupLines(m)
	groups := g.LinesPerRow() / group
	colHigh := a.Col / group
	colLow := a.Col % group

	line := uint64(a.Row)
	line = line*uint64(groups) + uint64(colHigh)
	line = line*uint64(g.BanksPerSubChannel) + uint64(a.Bank)
	line = line*uint64(g.SubChannels) + uint64(a.SubChannel)
	line = line*uint64(group) + uint64(colLow)
	return line * uint64(g.LineBytes)
}
