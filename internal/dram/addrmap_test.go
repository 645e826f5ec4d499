package dram

import (
	"testing"
	"testing/quick"
)

func TestDecomposeWithRoundTrip(t *testing.T) {
	g := Default()
	for _, m := range []AddressMapping{MOP4Mapping, LineInterleaved, RowInterleaved} {
		m := m
		f := func(raw uint64) bool {
			phys := raw % g.CapacityBytes()
			phys -= phys % uint64(g.LineBytes)
			a := g.DecomposeWith(m, phys)
			return g.ComposeWith(m, a) == phys &&
				a.Row >= 0 && a.Row < g.RowsPerBank &&
				a.Col >= 0 && a.Col < g.LinesPerRow()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("%v: %v", m, err)
		}
	}
}

func TestMappingLocalityCharacter(t *testing.T) {
	g := Default()
	sameRowRun := func(m AddressMapping) int {
		base := g.DecomposeWith(m, 0)
		run := 1
		for i := 1; i < g.LinesPerRow()*4; i++ {
			a := g.DecomposeWith(m, uint64(i*g.LineBytes))
			if a.SubChannel == base.SubChannel && a.Bank == base.Bank && a.Row == base.Row {
				run++
			} else {
				break
			}
		}
		return run
	}
	if got := sameRowRun(MOP4Mapping); got != 4 {
		t.Errorf("MOP4 run = %d, want 4", got)
	}
	if got := sameRowRun(LineInterleaved); got != 1 {
		t.Errorf("line-interleaved run = %d, want 1", got)
	}
	if got := sameRowRun(RowInterleaved); got != g.LinesPerRow() {
		t.Errorf("row-interleaved run = %d, want %d", got, g.LinesPerRow())
	}
}

// refDecompose is the plain-division reference for Decoder.Decompose: the
// mixed-radix split of the line index, one division per field.
func refDecompose(g Geometry, m AddressMapping, phys uint64) Address {
	group := g.MOPLines
	switch m {
	case LineInterleaved:
		group = 1
	case RowInterleaved:
		group = g.LinesPerRow()
	}
	line := phys / uint64(g.LineBytes)
	colLow := int(line % uint64(group))
	line /= uint64(group)
	sc := int(line % uint64(g.SubChannels))
	line /= uint64(g.SubChannels)
	bank := int(line % uint64(g.BanksPerSubChannel))
	line /= uint64(g.BanksPerSubChannel)
	groups := g.LinesPerRow() / group
	colHigh := int(line % uint64(groups))
	line /= uint64(groups)
	return Address{
		SubChannel: sc,
		Bank:       bank,
		Row:        int(line % uint64(g.RowsPerBank)),
		Col:        colHigh*group + colLow,
	}
}

// TestDecoderMatchesReference checks the decoder against the reference for
// every mapping, on the Table III geometry (shift-and-mask form) and on one
// with 3 sub-channels of 24 banks (division form). Decompose and
// DecomposeWith must agree with it too.
func TestDecoderMatchesReference(t *testing.T) {
	odd := Default()
	odd.SubChannels, odd.BanksPerSubChannel = 3, 24
	for _, g := range []Geometry{Default(), odd} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, m := range []AddressMapping{MOP4Mapping, LineInterleaved, RowInterleaved} {
			d := g.Decoder(m)
			if want := g == Default(); d.pow2 != want {
				t.Errorf("%v on %d banks: pow2 = %v, want %v", m, g.Banks(), d.pow2, want)
			}
			check := func(phys uint64) bool {
				want := refDecompose(g, m, phys)
				if m == MOP4Mapping && g.Decompose(phys) != want {
					return false
				}
				return d.Decompose(phys) == want && g.DecomposeWith(m, phys) == want
			}
			for line := uint64(0); line < 1<<14; line++ {
				if phys := line * uint64(g.LineBytes); !check(phys) {
					t.Fatalf("%v on %d banks: phys %#x decodes to %+v, want %+v", m, g.Banks(), phys, d.Decompose(phys), refDecompose(g, m, phys))
				}
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
				t.Errorf("%v on %d banks: %v", m, g.Banks(), err)
			}
		}
	}
}

func TestMappingStrings(t *testing.T) {
	if MOP4Mapping.String() != "mop4" || LineInterleaved.String() != "line-interleaved" {
		t.Error("mapping names wrong")
	}
}
