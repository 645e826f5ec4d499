package sweep

import (
	"encoding/json"
	"fmt"
	"strings"

	"mirza/internal/provenance"
	"mirza/internal/telemetry"
)

// Record appends every successful shard result to the ledger in shard
// enumeration order and publishes the new head. Re-recording an
// already-ledgered key with identical bytes is a no-op; different bytes
// fail (the ledger is append-only). Failed shards are skipped — their
// keys stay absent, so the next run re-executes them.
func Record(l *provenance.Ledger, results []ShardResult) (provenance.Head, int, error) {
	appended := 0
	for _, r := range results {
		if r.Err != nil || r.Manifest == nil {
			continue
		}
		_, added, err := l.Append(r.Manifest, r.Key, r.Shard.ID)
		if err != nil {
			return provenance.Head{}, appended, fmt.Errorf("sweep: recording shard %s: %w", r.Shard.ID, err)
		}
		if added {
			appended++
		}
	}
	head, err := l.Sync()
	if err != nil {
		return provenance.Head{}, appended, err
	}
	return head, appended, nil
}

// VerifySummary reports what a successful ledger verification covered.
type VerifySummary struct {
	Entries int
	Root    string
}

// VerifyLedger is the full `mirza-sweep verify` check over a ledger
// directory: the provenance layer's byte-level verification (entry log,
// record hashes, Merkle root, every inclusion proof) plus
// validateManifest on every record — the admission check the engine
// applies, binding each record to its entry's key (config hash, seed and
// fault plan included) as a clean canonical run manifest. Any flipped
// byte anywhere fails loudly.
func VerifyLedger(dir string) (VerifySummary, error) {
	l, err := provenance.Open(dir)
	if err != nil {
		return VerifySummary{}, err
	}
	if err := l.Verify(); err != nil {
		return VerifySummary{}, err
	}
	for _, e := range l.Entries() {
		b, err := l.Record(e.Seq)
		if err != nil {
			return VerifySummary{}, err
		}
		if err := validateManifest(b, e.Key); err != nil {
			return VerifySummary{}, fmt.Errorf("sweep: entry %d (%s): %w", e.Seq, e.Key, err)
		}
	}
	return VerifySummary{Entries: l.Len(), Root: l.Root().String()}, nil
}

// Table renders the ledger as a deterministic markdown sweep table: one
// row per entry in seq order, the footer carrying the Merkle root. The
// rendering is a pure function of the ledger contents, so tables from
// sweeps at different worker counts are byte-identical.
func Table(l *provenance.Ledger) (string, error) {
	var sb strings.Builder
	sb.WriteString("| seq | shard | seed | fault plan | config | leaf |\n")
	sb.WriteString("|----:|-------|-----:|------------|--------|------|\n")
	for _, e := range l.Entries() {
		b, err := l.Record(e.Seq)
		if err != nil {
			return "", err
		}
		var m telemetry.RunManifest
		if err := json.Unmarshal(b, &m); err != nil {
			return "", fmt.Errorf("sweep: entry %d: %w", e.Seq, err)
		}
		plan := m.FaultPlan
		if plan == "" {
			plan = "—"
		}
		fmt.Fprintf(&sb, "| %d | %s | %d | %s | `%.12s` | `%.12s` |\n",
			e.Seq, e.Shard, m.Seed, plan, m.ConfigHash, e.Leaf)
	}
	head := l.Head()
	root := head.Root
	if root == "" {
		root = l.Root().String()
	}
	fmt.Fprintf(&sb, "\nLedger root: `%s` over %d entries — every row provable with `mirza-sweep prove`, the whole ledger with `mirza-sweep verify`.\n",
		root, l.Len())
	return sb.String(), nil
}
