package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, l *Ledger, record []byte, key, shard string) Entry {
	t.Helper()
	e, added, err := l.Append(record, key, shard)
	if err != nil {
		t.Fatalf("Append(%s): %v", key, err)
	}
	if !added {
		t.Fatalf("Append(%s): expected a fresh entry", key)
	}
	return e
}

func buildLedger(t *testing.T, dir string, n int) *Ledger {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		mustAppend(t, l, []byte(fmt.Sprintf("{\"run\":%d}\n", i)),
			fmt.Sprintf("cfg%02d-%d", i, i), fmt.Sprintf("exp/seed=%d", i))
	}
	if _, err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerAppendVerify(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 5)
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify on a clean ledger: %v", err)
	}
	e, ok := l.Lookup("cfg03-3")
	if !ok || e.Seq != 3 {
		t.Fatalf("Lookup cfg03-3 = %+v, %v", e, ok)
	}
	rec, err := l.Record(3)
	if err != nil || string(rec) != "{\"run\":3}\n" {
		t.Fatalf("Record(3) = %q, %v", rec, err)
	}
	proof, err := l.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	leaf, _ := ParseHash(e.Leaf)
	if err := VerifyInclusion(l.Root(), leaf, 3, l.Len(), proof); err != nil {
		t.Fatalf("inclusion proof from ledger: %v", err)
	}
}

func TestLedgerReopenIsStable(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 4)
	rootBefore := l.Root()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 4 || l2.Root() != rootBefore {
		t.Fatalf("reopen: len=%d root=%s, want 4/%s", l2.Len(), l2.Root(), rootBefore)
	}
	if l2.Head().Root != rootBefore.String() {
		t.Fatalf("reopened head root %s != %s", l2.Head().Root, rootBefore)
	}
	// Sync with no growth must leave the head file byte-identical.
	before, err := os.ReadFile(filepath.Join(dir, headFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(filepath.Join(dir, headFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("no-op Sync rewrote HEAD.json:\n%s\nvs\n%s", before, after)
	}
}

func TestLedgerDedupAndConflict(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 2)

	// Same key + same bytes: dedup, no new entry.
	e, added, err := l.Append([]byte("{\"run\":1}\n"), "cfg01-1", "exp/seed=1")
	if err != nil || added || e.Seq != 1 {
		t.Fatalf("dedup append = %+v added=%v err=%v", e, added, err)
	}
	if l.Len() != 2 {
		t.Fatalf("dedup grew the ledger to %d", l.Len())
	}
	// Same key + different bytes: refused.
	if _, _, err := l.Append([]byte("{\"run\":999}\n"), "cfg01-1", "exp/seed=1"); err == nil {
		t.Fatal("ledger rewrote history for an existing key")
	} else if !strings.Contains(err.Error(), "append-only") {
		t.Fatalf("conflict error %q does not explain append-only", err)
	}
}

func TestLedgerHeadChaining(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 2)
	root1 := l.Head().Root

	mustAppend(t, l, []byte("three\n"), "cfg03-0", "exp/seed=0")
	head, err := l.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if head.PrevRoot != root1 {
		t.Fatalf("head.PrevRoot = %s, want previous root %s", head.PrevRoot, root1)
	}
	if head.Size != 3 || head.Root == root1 {
		t.Fatalf("head after growth: %+v", head)
	}
}

// TestLedgerVerifyDetectsTamper is the negative test the sweep gate
// relies on: a single flipped byte anywhere in the ledger must fail
// Verify loudly.
func TestLedgerVerifyDetectsTamper(t *testing.T) {
	flipByte := func(t *testing.T, path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the JSON payload (not a newline).
		i := len(b) / 2
		b[i] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("manifest-byte", func(t *testing.T) {
		dir := t.TempDir()
		l := buildLedger(t, dir, 4)
		flipByte(t, l.manifestPath(l.Entries()[2].Key))
		err := l.Verify()
		if err == nil {
			t.Fatal("Verify accepted a tampered manifest")
		}
		if !strings.Contains(err.Error(), "entry 2") {
			t.Fatalf("tamper error %q does not name the entry", err)
		}
	})

	t.Run("entry-line", func(t *testing.T) {
		dir := t.TempDir()
		l := buildLedger(t, dir, 4)
		path := filepath.Join(dir, entriesFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Point entry 1 at entry 0's leaf: entries parse, but the root no
		// longer matches the head.
		lines := bytes.Split(b, []byte("\n"))
		lines[1] = bytes.Replace(lines[1], []byte(l.Entries()[1].Leaf), []byte(l.Entries()[0].Leaf), 1)
		if err := os.WriteFile(path, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := l.Verify(); err == nil {
			t.Fatal("Verify accepted a rewritten entry line")
		}
	})

	t.Run("truncated-entries", func(t *testing.T) {
		dir := t.TempDir()
		l := buildLedger(t, dir, 4)
		path := filepath.Join(dir, entriesFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(b, []byte("\n"))
		if err := os.WriteFile(path, bytes.Join(lines[:3], nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := l.Verify(); err == nil {
			t.Fatal("Verify accepted a truncated entry log")
		}
	})

	t.Run("head-root", func(t *testing.T) {
		dir := t.TempDir()
		l := buildLedger(t, dir, 4)
		path := filepath.Join(dir, headFile)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		root := l.Head().Root
		flipped := root[:len(root)-1] + map[bool]string{true: "0", false: "1"}[root[len(root)-1] != '0']
		if err := os.WriteFile(path, bytes.Replace(b, []byte(root), []byte(flipped), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := l.Verify(); err == nil {
			t.Fatal("Verify accepted a rewritten head root")
		}
	})

	t.Run("missing-manifest", func(t *testing.T) {
		dir := t.TempDir()
		l := buildLedger(t, dir, 4)
		if err := os.Remove(l.manifestPath(l.Entries()[1].Key)); err != nil {
			t.Fatal(err)
		}
		if err := l.Verify(); err == nil {
			t.Fatal("Verify accepted a ledger with a missing record")
		}
	})
}

func TestOpenRejectsCorruptLog(t *testing.T) {
	dir := t.TempDir()
	buildLedger(t, dir, 2)
	path := filepath.Join(dir, entriesFile)
	// Duplicate the last line: duplicate key + non-contiguous seq.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if err := os.WriteFile(path, append(b, lines[1]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a log with a duplicated entry")
	}
}

// TestLedgerStoresEachRecordOnce: a record lives once, under its key;
// the ledger directory holds nothing else.
func TestLedgerStoresEachRecordOnce(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 3)
	var got []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			got = append(got, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{entriesFile, headFile}
	for _, e := range l.Entries() {
		want = append(want, filepath.Join(manifestsDir, e.Key+".json"))
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("ledger files = %v, want %v", got, want)
	}
}

// TestLedgerStoreBeforeAppend: Store writes a record ahead of its
// Append (what a sweep does as each shard finishes). Stored reads it
// back; Append adopts identical bytes and replaces different ones, since
// an unrecorded file carries no provenance claim.
func TestLedgerStoreBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 1)
	if _, err := l.Stored("k-2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Stored of an absent key: err = %v, want ErrNotExist", err)
	}
	if err := l.Store("k-2", []byte("stale\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Store("k-2", []byte("two\n")); err != nil {
		t.Fatal(err)
	}
	if b, err := l.Stored("k-2"); err != nil || string(b) != "two\n" {
		t.Fatalf("Stored = %q, %v", b, err)
	}
	if l.Len() != 1 {
		t.Fatalf("Store appended an entry: Len = %d", l.Len())
	}
	mustAppend(t, l, []byte("two\n"), "k-2", "s2")
	if err := l.Store("k-3", []byte("leftover\n")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, []byte("three\n"), "k-3", "s3")
	if rec, err := l.Record(2); err != nil || string(rec) != "three\n" {
		t.Fatalf("Record(2) = %q, %v", rec, err)
	}
	if _, err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(filepath.Join(dir, manifestsDir))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n.Name(), ".") {
			t.Fatalf("Store left temp file %s behind", n.Name())
		}
	}
}

// TestLedgerStoreRefusesRecordedKey: a recorded key's file is history.
// Store must not replace it, even when the file on disk was tampered
// with, so Verify still reports the tamper afterwards.
func TestLedgerStoreRefusesRecordedKey(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 2)
	path := l.manifestPath("cfg01-1")
	if err := os.WriteFile(path, []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := l.Store("cfg01-1", []byte("{\"run\":1}\n"))
	if err == nil || !strings.Contains(err.Error(), "append-only") {
		t.Fatalf("Store over a recorded key: err = %v, want an append-only refusal", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "tampered\n" {
		t.Fatalf("Store replaced a recorded file: now %q", b)
	}
	if err := l.Verify(); err == nil || !strings.Contains(err.Error(), "record was modified") {
		t.Fatalf("Verify after refused Store: err = %v, want the tamper reported", err)
	}
}

func TestLedgerRejectsNonFileNameKeys(t *testing.T) {
	cases := []struct{ name, key string }{
		{"empty", ""},
		{"slash", "a/b"},
		{"parent", "../escape"},
		{"backslash", `a\b`},
		{"dot", "."},
		{"dotdot", ".."},
		{"hidden", ".k-1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := l.Append([]byte("x\n"), tc.key, "s"); err == nil || !strings.Contains(err.Error(), "plain file name") {
				t.Fatalf("Append(key %q) err = %v, want a plain-file-name refusal", tc.key, err)
			}
			if err := l.Store(tc.key, []byte("x\n")); err == nil {
				t.Fatalf("Store(key %q) accepted", tc.key)
			}
			if l.Len() != 0 {
				t.Fatalf("refused key %q still appended", tc.key)
			}
		})
	}
	// A plain name with dots and dashes inside is fine.
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, []byte("x\n"), "abc.def-1", "s")
}

// TestLedgerRejectsOldSchema: a schema-1 head (records under their leaf
// hash) is refused by Open and Verify with a re-run hint, not misread.
func TestLedgerRejectsOldSchema(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 2)
	path := filepath.Join(dir, headFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(b, []byte(`"schema_version":2`), []byte(`"schema_version":1`), 1)
	if bytes.Equal(old, b) {
		t.Fatalf("head %s has no schema_version 2", b)
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "re-run the sweep") {
		t.Fatalf("Open of a schema-1 ledger: err = %v, want a re-run hint", err)
	}
	if err := l.Verify(); err == nil || !strings.Contains(err.Error(), "re-run the sweep") {
		t.Fatalf("Verify of a schema-1 ledger: err = %v, want a re-run hint", err)
	}
}

// TestOpenRejectsPathKeys: an entry log naming a key that is not a
// plain file name is refused before any record path is built from it.
func TestOpenRejectsPathKeys(t *testing.T) {
	dir := t.TempDir()
	l := buildLedger(t, dir, 1)
	path := filepath.Join(dir, entriesFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	key := l.Entries()[0].Key
	if err := os.WriteFile(path, bytes.Replace(b, []byte(`"`+key+`"`), []byte(`"../`+key+`"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "plain file name") {
		t.Fatalf("Open err = %v, want a plain-file-name refusal", err)
	}
	if err := l.Verify(); err == nil || !strings.Contains(err.Error(), "plain file name") {
		t.Fatalf("Verify err = %v, want a plain-file-name refusal", err)
	}
}
