package sweep

import (
	"fmt"
	"strings"
	"testing"

	"mirza/internal/provenance"
	"mirza/internal/telemetry"
)

// TestVerifyLedgerAdmission: VerifyLedger applies the engine's admission
// check to every record, so a manifest appended directly to the ledger
// (bypassing the engine) is refused unless it is a clean canonical
// manifest answering for its key.
func TestVerifyLedgerAdmission(t *testing.T) {
	config := map[string]string{"exp": "table1", "quick": "true"}
	manifest := func(edit func(m *telemetry.RunManifest)) *telemetry.RunManifest {
		m := telemetry.NewManifest("mirza-bench", config)
		m.Seed = 1
		if edit != nil {
			edit(m)
		}
		return m
	}
	canonical := func(m *telemetry.RunManifest) []byte {
		b, err := m.Canonical().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	raw := func(m *telemetry.RunManifest) []byte {
		b, err := m.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	key := fmt.Sprintf("%s-1", telemetry.ConfigHash(config))

	cases := []struct {
		name   string
		record []byte
		want   string // "" = verifies
	}{
		{"clean", canonical(manifest(nil)), ""},
		{"wall-clock", raw(manifest(func(m *telemetry.RunManifest) {
			m.WallClockSeconds = 1.5
			m.WrittenAt = "2026-01-01T00:00:00Z"
		})), "not canonical"},
		{"other-seed", canonical(manifest(func(m *telemetry.RunManifest) { m.Seed = 2 })), "answers for key"},
		{"config-hash", canonical(manifest(func(m *telemetry.RunManifest) {
			m.Config = map[string]string{"exp": "table7"}
		})), "does not hash"},
		{"degraded", canonical(manifest(func(m *telemetry.RunManifest) { m.Degraded = true })), "degraded"},
		{"not-json", []byte("not a manifest\n"), "does not parse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := provenance.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := l.Append(tc.record, key, "table1/s=1"); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			_, err = VerifyLedger(dir)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("VerifyLedger refused a clean manifest: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("VerifyLedger err = %v, want mention of %q", err, tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), "entry 0"):
				t.Fatalf("VerifyLedger err %q does not name the entry", err)
			}
		})
	}
}
