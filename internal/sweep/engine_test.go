package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mirza/internal/provenance"
	"mirza/internal/telemetry"
)

// benchBin is the mirza-bench binary TestMain builds once for every
// engine test; empty when the build failed (tests then skip with the
// recorded error).
var (
	benchBin      string
	benchBuildErr string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sweep-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "mirza-bench")
	cmd := exec.Command("go", "build", "-o", bin, "mirza/cmd/mirza-bench")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		benchBuildErr = fmt.Sprintf("building mirza-bench: %v: %s", err, out)
	} else {
		benchBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func needBench(t *testing.T) string {
	t.Helper()
	if benchBin == "" {
		t.Fatalf("mirza-bench unavailable: %s", benchBuildErr)
	}
	return benchBin
}

// quickGrid is a grid cheap enough to execute as real worker processes:
// table1 renders DDR5 timing parameters without a timing simulation.
func quickGrid(from, to uint64) *Grid {
	return &Grid{Experiments: []string{"table1"}, Seeds: SeedRange{From: from, To: to}, Quick: true}
}

// openLedger opens (creating) the ledger at dir.
func openLedger(t *testing.T, dir string) *provenance.Ledger {
	t.Helper()
	l, err := provenance.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runGrid executes g on eng into the ledger at dir without recording.
func runGrid(t *testing.T, eng *Engine, g *Grid, dir string) []ShardResult {
	t.Helper()
	results, err := eng.Run(context.Background(), g, openLedger(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// runSweep executes g into a fresh ledger directory, records it and
// returns the directory.
func runSweep(t *testing.T, g *Grid, workers int, opts func(*Options)) (string, []ShardResult) {
	t.Helper()
	o := Options{Bench: needBench(t), Workers: workers}
	if opts != nil {
		opts(&o)
	}
	eng, err := NewEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := t.TempDir()
	l := openLedger(t, ledgerDir)
	results, err := eng.Run(context.Background(), g, l)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Record(l, results); err != nil {
		t.Fatal(err)
	}
	return ledgerDir, results
}

// readTree maps relative path -> file bytes for a whole directory.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProcessShardDeterminism is the tentpole guarantee: the merged
// ledger (entry log, head, every recorded manifest) and the rendered
// table are byte-identical whether the shards ran in one process
// sequentially or across four worker processes.
func TestProcessShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	g := quickGrid(1, 3)
	seqDir, seqRes := runSweep(t, g, 1, nil)
	parDir, parRes := runSweep(t, g, 4, nil)

	for i := range seqRes {
		if seqRes[i].Err != nil || parRes[i].Err != nil {
			t.Fatalf("shard %s failed: seq=%v par=%v", seqRes[i].Shard.ID, seqRes[i].Err, parRes[i].Err)
		}
		if !bytes.Equal(seqRes[i].Manifest, parRes[i].Manifest) {
			t.Fatalf("shard %s manifest differs between -workers 1 and -workers 4", seqRes[i].Shard.ID)
		}
	}
	seqTree, parTree := readTree(t, seqDir), readTree(t, parDir)
	if len(seqTree) != len(parTree) {
		t.Fatalf("ledger trees differ in file count: %d vs %d", len(seqTree), len(parTree))
	}
	for rel, b := range seqTree {
		pb, ok := parTree[rel]
		if !ok {
			t.Fatalf("parallel ledger is missing %s", rel)
		}
		if !bytes.Equal(b, pb) {
			t.Fatalf("ledger file %s differs between -workers 1 and -workers 4:\n%s\nvs\n%s", rel, b, pb)
		}
	}
	seqL, err := provenance.Open(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	parL, err := provenance.Open(parDir)
	if err != nil {
		t.Fatal(err)
	}
	seqTbl, err := Table(seqL)
	if err != nil {
		t.Fatal(err)
	}
	parTbl, err := Table(parL)
	if err != nil {
		t.Fatal(err)
	}
	if seqTbl != parTbl {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", seqTbl, parTbl)
	}
	if _, err := VerifyLedger(seqDir); err != nil {
		t.Fatalf("VerifyLedger: %v", err)
	}
}

// TestIncrementalRerunSkipsCachedShards: a second run over a grown grid
// executes only the new seeds, and re-recording leaves every existing
// ledger byte untouched.
func TestIncrementalRerunSkipsCachedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	eng, err := NewEngine(Options{Bench: needBench(t), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := t.TempDir()

	first := runGrid(t, eng, quickGrid(1, 2), ledgerDir)
	if _, _, err := Record(openLedger(t, ledgerDir), first); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, ledgerDir)

	second := runGrid(t, eng, quickGrid(1, 3), ledgerDir)
	for i, r := range second {
		if r.Err != nil {
			t.Fatalf("shard %s: %v", r.Shard.ID, r.Err)
		}
		wantCached := i < 2 // seeds 1 and 2 ran in the first sweep
		if r.Cached != wantCached {
			t.Fatalf("shard %s cached=%v, want %v", r.Shard.ID, r.Cached, wantCached)
		}
	}
	l2 := openLedger(t, ledgerDir)
	head, appended, err := Record(l2, second)
	if err != nil {
		t.Fatal(err)
	}
	if appended != 1 || head.Size != 3 {
		t.Fatalf("incremental record appended %d entries to size %d, want +1 to 3", appended, head.Size)
	}
	after := readTree(t, ledgerDir)
	for rel, b := range before {
		if rel == "HEAD.json" || rel == "entries.ndjson" {
			continue // these legitimately grow
		}
		if !bytes.Equal(after[rel], b) {
			t.Fatalf("incremental rerun rewrote %s", rel)
		}
	}
	if !bytes.HasPrefix(after["entries.ndjson"], before["entries.ndjson"]) {
		t.Fatalf("entry log was rewritten, not appended:\n%s\nvs\n%s", before["entries.ndjson"], after["entries.ndjson"])
	}
	// Each manifest lives exactly once: the ledger holds its two index
	// files and one record file per entry, nothing else.
	want := map[string]bool{"entries.ndjson": true, "HEAD.json": true}
	for _, e := range l2.Entries() {
		want[filepath.Join("manifests", e.Key+".json")] = true
	}
	if len(after) != len(want) {
		t.Fatalf("ledger holds %d files, want %d: %v", len(after), len(want), keysOf(after))
	}
	for rel := range after {
		if !want[rel] {
			t.Fatalf("unexpected ledger file %s (all: %v)", rel, keysOf(after))
		}
	}
	if _, err := VerifyLedger(ledgerDir); err != nil {
		t.Fatalf("VerifyLedger after incremental rerun: %v", err)
	}
}

// killingWrapper builds a shell wrapper around mirza-bench that SIGKILLs
// itself on the first attempt per request file, then execs the real
// binary — the worker-death scenario.
func killingWrapper(t *testing.T, markerDir string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench-killer.sh")
	script := `#!/bin/sh
# $1=-shard $2=<request.json> ...
marker="` + markerDir + `/$(basename "$2").killed"
if [ ! -e "$marker" ]; then
  : > "$marker"
  kill -KILL $$
fi
exec "` + needBench(t) + `" "$@"
`
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWorkerDeathRetryYieldsIdenticalManifest: a shard whose worker is
// SIGKILLed mid-flight is retried, and the retried shard's manifest
// hash equals a never-killed run of the same shard.
func TestWorkerDeathRetryYieldsIdenticalManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	g := quickGrid(7, 7)
	_, cleanRes := runSweep(t, g, 1, nil)

	markerDir := t.TempDir()
	wrapper := killingWrapper(t, markerDir)
	var logs []string
	_, killedRes := runSweep(t, g, 1, func(o *Options) {
		o.Bench = wrapper
		o.Logf = func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}
	})

	if killedRes[0].Err != nil {
		t.Fatalf("shard failed despite retry budget: %v", killedRes[0].Err)
	}
	if killedRes[0].Deaths != 1 {
		t.Fatalf("shard survived %d deaths, want exactly 1", killedRes[0].Deaths)
	}
	markers, err := os.ReadDir(markerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(markers) != 1 {
		t.Fatalf("wrapper killed %d attempts, want 1", len(markers))
	}
	if !bytes.Equal(killedRes[0].Manifest, cleanRes[0].Manifest) {
		t.Fatalf("retried shard manifest differs from the clean run")
	}
	if provenance.LeafHash(killedRes[0].Manifest) != provenance.LeafHash(cleanRes[0].Manifest) {
		t.Fatalf("retried shard leaf hash differs from the clean run")
	}
	found := false
	for _, line := range logs {
		if strings.Contains(line, "worker died") {
			found = true
		}
	}
	if !found {
		t.Fatalf("engine never logged the worker death: %v", logs)
	}
}

// TestDeterministicFailureIsNotRetried: a worker that exits nonzero is
// a deterministic failure — rerunning it would fail identically, so the
// engine must run it exactly once.
func TestDeterministicFailureIsNotRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	countDir := t.TempDir()
	wrapDir := t.TempDir()
	wrapper := filepath.Join(wrapDir, "bench-fail.sh")
	script := `#!/bin/sh
: > "` + countDir + `/attempt-$$"
echo "scripted worker failure" >&2
exit 1
`
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Options{Bench: wrapper, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := runGrid(t, eng, quickGrid(1, 1), t.TempDir())
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "worker exited 1") {
		t.Fatalf("shard error = %v, want a worker-exit failure", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "scripted worker failure") {
		t.Fatalf("shard error does not carry the worker's stderr: %v", results[0].Err)
	}
	attempts, err := os.ReadDir(countDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 1 {
		t.Fatalf("deterministic failure ran %d times, want exactly 1", len(attempts))
	}
}

// TestInvalidCacheEntryReruns: a corrupted manifest file in the ledger
// that no entry records yet must be treated as a miss (and replaced),
// never reused.
func TestInvalidCacheEntryReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	eng, err := NewEngine(Options{Bench: needBench(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := t.TempDir()
	g := quickGrid(1, 1)
	first := runGrid(t, eng, g, ledgerDir)
	if first[0].Err != nil || first[0].Cached {
		t.Fatalf("first run = %+v", first[0])
	}
	// Corrupt the stored manifest.
	path := filepath.Join(ledgerDir, "manifests", first[0].Key+".json")
	if err := os.WriteFile(path, []byte("{\"garbage\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	second := runGrid(t, eng, g, ledgerDir)
	if second[0].Err != nil {
		t.Fatal(second[0].Err)
	}
	if second[0].Cached {
		t.Fatalf("corrupted stored manifest was served as a hit")
	}
	if !bytes.Equal(second[0].Manifest, first[0].Manifest) {
		t.Fatalf("rerun after corruption produced different bytes")
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, first[0].Manifest) {
		t.Fatalf("rerun did not replace the corrupted file: %q, %v", b, err)
	}
}

// TestRecordedManifestIsNeverRerun: a recorded manifest that no longer
// matches its entry fails its shard instead of being re-run and
// overwritten, so the tamper stays on disk for VerifyLedger to report.
// Shard 0's file no longer parses; shard 1's is a canonical manifest
// with an edited metric, which only the entry's leaf catches. Recorded
// shards never reach a worker: the second run's bench binary does not
// exist.
func TestRecordedManifestIsNeverRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	ledgerDir, first := runSweep(t, quickGrid(1, 3), 1, nil)
	pathOf := func(r ShardResult) string { return filepath.Join(ledgerDir, "manifests", r.Key+".json") }
	if err := os.WriteFile(pathOf(first[0]), []byte("{\"garbage\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var m telemetry.RunManifest
	if err := json.Unmarshal(first[1].Manifest, &m); err != nil {
		t.Fatal(err)
	}
	m.SimulatedPS++
	edited, err := m.Canonical().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := validateManifest(edited, first[1].Key); err != nil {
		t.Fatalf("edited manifest should still pass validateManifest: %v", err)
	}
	if err := os.WriteFile(pathOf(first[1]), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, ledgerDir)

	eng, err := NewEngine(Options{Bench: filepath.Join(t.TempDir(), "no-bench"), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := openLedger(t, ledgerDir)
	second, err := eng.Run(context.Background(), quickGrid(1, 3), l)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range second[:2] {
		if r.Err == nil || r.Cached || !strings.Contains(r.Err.Error(), "damaged") {
			t.Fatalf("tampered recorded shard %s = %+v, want a damaged-record failure", r.Shard.ID, r)
		}
	}
	if r := second[2]; r.Err != nil || !r.Cached || !bytes.Equal(r.Manifest, first[2].Manifest) {
		t.Fatalf("intact recorded shard = %+v, want it reused", r)
	}
	if _, _, err := Record(l, second); err != nil {
		t.Fatal(err)
	}
	after := readTree(t, ledgerDir)
	for _, name := range keysOf(before) {
		if !bytes.Equal(before[name], after[name]) {
			t.Fatalf("%s changed by a run over a recorded grid", name)
		}
	}
	if len(after) != len(before) {
		t.Fatalf("ledger files %v, want %v", keysOf(after), keysOf(before))
	}
	if _, err := VerifyLedger(ledgerDir); err == nil || !strings.Contains(err.Error(), "record was modified") {
		t.Fatalf("VerifyLedger after the run: err = %v, want the tamper reported", err)
	}
}

// TestCoordinatorCrashReusesStoredShards: a coordinator that dies after
// its shards finished but before Record still leaves every finished
// manifest in the ledger directory. The next run reuses all of them,
// and recording it gives the root of an uninterrupted sweep.
func TestCoordinatorCrashReusesStoredShards(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	g := quickGrid(1, 3)
	cleanDir, _ := runSweep(t, g, 2, nil)

	eng, err := NewEngine(Options{Bench: needBench(t), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := t.TempDir()
	first := runGrid(t, eng, g, ledgerDir) // "crashes": never recorded
	second := runGrid(t, eng, g, ledgerDir)
	for i, r := range second {
		if r.Err != nil {
			t.Fatalf("shard %s: %v", r.Shard.ID, r.Err)
		}
		if !r.Cached {
			t.Fatalf("shard %s re-executed after the coordinator crash", r.Shard.ID)
		}
		if !bytes.Equal(r.Manifest, first[i].Manifest) {
			t.Fatalf("shard %s: reused manifest differs from the one stored", r.Shard.ID)
		}
	}
	l := openLedger(t, ledgerDir)
	head, _, err := Record(l, second)
	if err != nil {
		t.Fatal(err)
	}
	if want := openLedger(t, cleanDir).Head().Root; head.Root != want {
		t.Fatalf("root after crash and rerun = %s, uninterrupted sweep = %s", head.Root, want)
	}
	if _, err := VerifyLedger(ledgerDir); err != nil {
		t.Fatalf("VerifyLedger after crash reuse: %v", err)
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
