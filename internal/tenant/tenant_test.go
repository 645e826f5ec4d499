package tenant

import (
	"reflect"
	"strings"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies"
	"mirza/internal/vmap"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in      string
		wantErr string
		cores   []int
		names   []string
	}{
		{in: DefaultSpec, cores: []int{6, 2}, names: []string{"xz", "attack=edge"}},
		{in: "xz", cores: []int{1}, names: []string{"xz"}},
		{in: "xz:2+mcf:4+attack=double:2", cores: []int{2, 4, 2}, names: []string{"xz", "mcf", "attack=double"}},
		{in: " xz:1 + attack=edge:1 ", cores: []int{1, 1}, names: []string{"xz", "attack=edge"}},
		{in: "", wantErr: "empty spec"},
		{in: "nosuchworkload:2", wantErr: "nosuchworkload"},
		{in: "xz:0", wantErr: "bad core count"},
		{in: "xz:-1", wantErr: "bad core count"},
		{in: "xz:two", wantErr: "bad core count"},
		{in: "xz:1022+attack=edge:2", cores: []int{1022, 2}, names: []string{"xz", "attack=edge"}},
		{in: "xz:100000000+attack=edge:2", wantErr: "more than 1024 cores"},
		{in: "xz:1023+attack=edge:2", wantErr: "more than 1024 cores"},
		{in: "xz:9223372036854775807+bc:9223372036854775807", wantErr: "more than 1024 cores"},
		{in: "attack=sideways:1", wantErr: "unknown attack kind"},
		{in: "attack=edge:1+attack=double:1", wantErr: "more than one attacker"},
	}
	for _, tc := range cases {
		s, err := Parse(tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Parse(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		var cores []int
		for _, tn := range s.Tenants {
			cores = append(cores, tn.Cores)
		}
		if !reflect.DeepEqual(cores, tc.cores) || !reflect.DeepEqual(s.Names(), tc.names) {
			t.Errorf("Parse(%q) = %v/%v want %v/%v", tc.in, cores, s.Names(), tc.cores, tc.names)
		}
		// Canonical round-trip.
		again, err := Parse(s.String())
		if err != nil || again.String() != s.String() {
			t.Errorf("Parse(%q) canonical round-trip: %q -> %q (%v)", tc.in, s.String(), again.String(), err)
		}
	}
}

func TestGeneratorsLayout(t *testing.T) {
	s, err := Parse("xz:2+attack=edge:2")
	if err != nil {
		t.Fatal(err)
	}
	gens, asids, err := s.Generators(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 4 || !reflect.DeepEqual(asids, []int{0, 0, 1, 1}) {
		t.Fatalf("gens=%d asids=%v", len(gens), asids)
	}
	if gens[0].Name() != "xz" || !strings.HasPrefix(gens[2].Name(), "attack=edge#") {
		t.Fatalf("names %q %q", gens[0].Name(), gens[2].Name())
	}
	if s.TotalCores() != 4 || s.Attacker() != 1 {
		t.Fatalf("TotalCores=%d Attacker=%d", s.TotalCores(), s.Attacker())
	}
	if got := s.CoreLayout(); !reflect.DeepEqual(got, []int{0, 0, 1, 1}) {
		t.Fatalf("CoreLayout=%v", got)
	}

	// Solo generators replay the combined run's streams exactly.
	solo, soloASIDs, err := s.SoloGenerators(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 2 || !reflect.DeepEqual(soloASIDs, []int{0, 0}) {
		t.Fatalf("solo gens=%d asids=%v", len(solo), soloASIDs)
	}
	var a, b trace.Op
	for i := 0; i < 100; i++ {
		gens[1].Next(&a)
		solo[1].Next(&b)
		if a != b {
			t.Fatalf("op %d: combined %+v != solo %+v", i, a, b)
		}
	}
}

func TestHammerStream(t *testing.T) {
	h := NewHammer(AttackEdge, 0)
	if h.FootprintBytes() != 512<<20 {
		t.Fatalf("footprint %d", h.FootprintBytes())
	}
	var op trace.Op
	seenGroups := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		h.Next(&op)
		if op.Gap != 0 || op.Write {
			t.Fatalf("op %d = %+v, want max-rate read", i, op)
		}
		if op.Line*trace.LineBytes >= h.FootprintBytes() {
			t.Fatalf("op %d line %d outside the footprint", i, op.Line)
		}
		seenGroups[op.Line/groupLines] = true
	}
	// Edge kind touches first and last groups of the superblock.
	if !seenGroups[0] || !seenGroups[groupsPerSuper-1] {
		t.Fatalf("edge hammer groups %v miss the allocation edges", seenGroups)
	}
	// Deterministic: same construction, same stream.
	h2, h3 := NewHammer(AttackDouble, 1), NewHammer(AttackDouble, 1)
	var x, y trace.Op
	for i := 0; i < 1000; i++ {
		h2.Next(&x)
		h3.Next(&y)
		if x != y {
			t.Fatalf("hammer stream not deterministic at op %d", i)
		}
	}
}

func TestBuildLayoutAttribution(t *testing.T) {
	s, err := Parse(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	g := dram.Default()
	l, err := BuildLayout(s, g.CapacityBytes(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	total := g.CapacityBytes() / vmap.SuperBytes
	if got := uint64(l.Mapper.MappedBlocks()); got < uint64(0.75*float64(total)) {
		t.Fatalf("occupancy %d/%d below fill", got, total)
	}
	b := l.AttackedBlock
	if b == 0 || b == total-1 {
		t.Fatalf("attacked block %d at physical edge", b)
	}
	if owner, ok := l.Mapper.OwnerOf(b * vmap.SuperBytes); !ok || owner != s.Attacker() {
		t.Fatalf("attacked block %d not attacker-owned (owner %d ok=%v)", b, owner, ok)
	}
	// Attribution: rows inside the attacked block are the attacker's,
	// rows of the neighbouring blocks are someone else's.
	inRow := int(b) * rowsPerSuper
	if got := l.OwnerLabel(inRow); got != "attack=edge" {
		t.Fatalf("OwnerLabel(own row) = %q", got)
	}
	if got := l.OwnerLabel(inRow - 1); got == "attack=edge" {
		t.Fatalf("neighbour row attributed to the attacker")
	}
	// The loaded host guarantees at least one allocated neighbour class.
	left, right := l.OwnerLabel(inRow-1), l.OwnerLabel(int(b+1)*rowsPerSuper)
	if left == FreeLabel && right == FreeLabel {
		t.Fatalf("both neighbours free at 75%% occupancy: %q %q", left, right)
	}
}

// buildPolicy adapts a registry policy to the security config.
func buildPolicy(t *testing.T, name string, trhd int) (*track.Built, func(sink track.Sink) track.Mitigator) {
	t.Helper()
	b, err := track.Build(name, nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     trhd,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, func(sink track.Sink) track.Mitigator { return b.Factory()(0, sink) }
}

func TestRunSecurityAttribution(t *testing.T) {
	s, err := Parse(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	g := dram.Default()
	l, err := BuildLayout(s, g.CapacityBytes(), 0.75)
	if err != nil {
		t.Fatal(err)
	}

	run := func(policy string) *SecurityResult {
		b, factory := buildPolicy(t, policy, 1000)
		res, err := l.RunSecurity(SecurityConfig{
			Geometry:     g,
			Timing:       b.Timing(),
			Mapping:      dram.StridedR2SA,
			TRHD:         1000,
			Windows:      2,
			RFMEvery:     b.RFMBAT(),
			NewMitigator: factory,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return res
	}

	// Unprotected: the edge attack must escape across the VM boundary.
	none := run("none")
	if none.CrossFlips == 0 {
		t.Fatalf("unprotected edge attack produced no cross-VM flips: %+v (sim %s)", none, none.Sim)
	}
	for label := range none.FlipsByOwner {
		if label == "attack=edge" {
			continue
		}
		if label != "xz" && label != FillLabel && label != FreeLabel {
			t.Fatalf("unknown owner label %q", label)
		}
	}
	// Flip counts agree with the underlying sim.
	sum := 0
	for _, n := range none.FlipsByOwner {
		sum += n
	}
	if sum != none.Sim.Flips || sum != none.CrossFlips+none.SelfFlips {
		t.Fatalf("attribution mismatch: owners=%d sim=%d cross+self=%d",
			sum, none.Sim.Flips, none.CrossFlips+none.SelfFlips)
	}

	// A real mitigation keeps every tenant flip-free.
	prac := run("prac")
	if prac.CrossFlips != 0 || prac.SelfFlips != 0 {
		t.Fatalf("prac leaked flips: %+v", prac.FlipsByOwner)
	}

	// Determinism: same layout + policy, same outcome.
	again := run("none")
	if !reflect.DeepEqual(again.FlipsByOwner, none.FlipsByOwner) || again.Sim != none.Sim {
		t.Fatalf("security run not deterministic:\n%+v\n%+v", none, again)
	}
}
