package sweep

import (
	"math"
	"strings"
	"testing"
)

func TestShardEnumerationOrder(t *testing.T) {
	g := &Grid{
		Experiments: []string{"fig3", "table8"},
		Seeds:       SeedRange{From: 1, To: 2},
		Workloads:   []string{"xz", "mcf"},
		Mitigations: []string{"prac"},
	}
	shards, err := g.Shards()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig3/w=xz/m=prac/s=1", "fig3/w=xz/m=prac/s=2",
		"fig3/w=mcf/m=prac/s=1", "fig3/w=mcf/m=prac/s=2",
		"table8/w=xz/m=prac/s=1", "table8/w=xz/m=prac/s=2",
		"table8/w=mcf/m=prac/s=1", "table8/w=mcf/m=prac/s=2",
	}
	if len(shards) != len(want) {
		t.Fatalf("enumerated %d shards, want %d", len(shards), len(want))
	}
	for i, sh := range shards {
		if sh.ID != want[i] || sh.Index != i {
			t.Errorf("shard[%d] = %q (index %d), want %q", i, sh.ID, sh.Index, want[i])
		}
		if !sh.Req.NoRetry {
			t.Errorf("shard[%d] does not force NoRetry", i)
		}
	}
	if shards[0].Req.Workloads[0] != "xz" || shards[2].Req.Workloads[0] != "mcf" {
		t.Errorf("workload axis not threaded into requests")
	}
	if shards[0].Req.Seed != 1 || shards[1].Req.Seed != 2 {
		t.Errorf("seed axis not threaded into requests")
	}
}

func TestShardDefaultAxes(t *testing.T) {
	g := &Grid{Experiments: []string{"fig3"}}
	shards, err := g.Shards()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("default grid enumerated %d shards, want 1", len(shards))
	}
	sh := shards[0]
	if sh.ID != "fig3/s=1" {
		t.Fatalf("default shard id = %q", sh.ID)
	}
	if sh.Req.Seed != 1 || sh.Req.Workloads != nil || sh.Req.Mitigations != nil {
		t.Fatalf("default shard request = %+v", sh.Req)
	}
}

func TestGridValidation(t *testing.T) {
	cases := []struct {
		name string
		g    Grid
		want string
	}{
		{"no-experiments", Grid{}, "at least one experiment"},
		{"empty-id", Grid{Experiments: []string{" "}}, "empty experiment id"},
		{"zero-from", Grid{Experiments: []string{"fig3"}, Seeds: SeedRange{From: 0, To: 5}}, "both ends"},
		{"inverted", Grid{Experiments: []string{"fig3"}, Seeds: SeedRange{From: 5, To: 2}}, "from=5 > to=2"},
		{"too-many", Grid{Experiments: []string{"fig3"}, Seeds: SeedRange{From: 1, To: MaxShards + 1}}, "above the"},
		// Spans beyond MaxInt64 once converted to a negative int and
		// panicked in makeslice instead of failing the bound.
		{"span-all-uint64", Grid{Experiments: []string{"fig3"}, Seeds: SeedRange{From: 1, To: math.MaxUint64}}, "above the"},
		{"span-upper-half", Grid{Experiments: []string{"fig3"}, Seeds: SeedRange{From: 1 << 63, To: math.MaxUint64}}, "above the"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.g.Shards()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Shards() err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestParseGridStrict(t *testing.T) {
	g, err := ParseGrid([]byte(`{"experiments":["fig3"],"seeds":{"from":1,"to":4},"quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.Seeds.To != 4 || !g.Quick {
		t.Fatalf("parsed grid = %+v", g)
	}
	if _, err := ParseGrid([]byte(`{"experiments":["fig3"],"sneeds":{}}`)); err == nil {
		t.Fatal("accepted an unknown grid field")
	}
	if _, err := ParseGrid([]byte(`{"experiments":["fig3"]}{"again":1}`)); err == nil {
		t.Fatal("accepted trailing data")
	}
}

// TestShardSeedsAtUint64Top: a small range ending at the largest seed
// enumerates exactly its seeds (the loop must not wrap around).
func TestShardSeedsAtUint64Top(t *testing.T) {
	g := &Grid{Experiments: []string{"fig3"}, Seeds: SeedRange{From: math.MaxUint64 - 1, To: math.MaxUint64}}
	shards, err := g.Shards()
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || shards[0].Req.Seed != math.MaxUint64-1 || shards[1].Req.Seed != math.MaxUint64 {
		t.Fatalf("shards = %+v", shards)
	}
}
