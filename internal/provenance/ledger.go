package provenance

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Ledger file layout inside the ledger directory:
//
//	entries.ndjson         append-only: one Entry JSON per line, seq order
//	manifests/<key>.json   record bytes, stored once under the entry key
//	                       (the entry's leaf is their hash)
//	HEAD.json              Head: tree size + Merkle root, chained to the
//	                       previous root (the "signed root" analogue)
//
// Every file is a pure function of the appended (record, key, shard)
// sequence — no timestamps, no absolute paths — so two ledgers built
// from the same shard results are byte-identical, whatever worker count
// or machine produced them. A record with no entry yet (see Store) is
// not part of the tree.
const (
	entriesFile  = "entries.ndjson"
	headFile     = "HEAD.json"
	manifestsDir = "manifests"
)

// LedgerSchemaVersion identifies the on-disk layout. Version 1 stored
// records under their leaf hash; it is refused, not migrated.
const LedgerSchemaVersion = 2

// Entry is one appended record: the ledger's unit of provenance.
type Entry struct {
	// Seq is the append index (0-based): the record's leaf index in the
	// Merkle tree.
	Seq int `json:"seq"`

	// Key is the content-addressed run identity the record answers for
	// (telemetry.ConfigHash(config) + "-" + seed for sweep shards). A key
	// appears at most once; re-appending it with identical bytes is a
	// no-op and with different bytes an error — history is append-only.
	Key string `json:"key"`

	// Leaf is the hex leaf hash of the record bytes; the record itself
	// lives in manifests/<key>.json.
	Leaf string `json:"leaf"`

	// Shard is the human-readable shard identity ("fig3/w=xz/m=prac/s=3").
	Shard string `json:"shard,omitempty"`
}

// Head is the ledger head: the Merkle root over all entries in seq
// order, chained to the root it replaced.
type Head struct {
	SchemaVersion int    `json:"schema_version"`
	Size          int    `json:"size"`
	Root          string `json:"root"`

	// PrevRoot is the root the previous Sync recorded (empty for the
	// first). The chain of heads is what makes silent truncation — not
	// just mutation — detectable by anyone who recorded an older root.
	PrevRoot string `json:"prev_root,omitempty"`
}

// Ledger is an append-only Merkle ledger rooted at a directory. It is
// not safe for concurrent use; one writer owns a ledger directory.
// Stored and Store may run concurrently while no Append does.
type Ledger struct {
	dir     string
	entries []Entry
	leaves  []Hash
	byKey   map[string]int
	head    Head // as last synced (zero if never)
	dirty   bool
}

// Open opens the ledger at dir, creating the directory structure on
// first use. Existing entries are loaded and lightly validated (seq
// contiguity, well-formed hashes, unique plain-file-name keys, a
// current-schema head); use Verify for the full bytes-on-disk check.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(filepath.Join(dir, manifestsDir), 0o755); err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	l := &Ledger{dir: dir}
	if err := l.load(); err != nil {
		return nil, err
	}
	if head, err := readHead(filepath.Join(dir, headFile)); err == nil {
		l.head = head
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return l, nil
}

// checkKey refuses keys that are not plain file names: a key names its
// record file, and names starting with "." are Store's temp files.
func checkKey(key string) error {
	if key == "" || key[0] == '.' || strings.ContainsAny(key, `/\`) {
		return fmt.Errorf("provenance: entry key %q is not a plain file name", key)
	}
	return nil
}

// Len returns the number of recorded entries.
func (l *Ledger) Len() int { return len(l.entries) }

// Entries returns the recorded entries in seq order (shared slice; do
// not mutate).
func (l *Ledger) Entries() []Entry { return l.entries }

// Lookup finds the entry recorded for key.
func (l *Ledger) Lookup(key string) (Entry, bool) {
	i, ok := l.byKey[key]
	if !ok {
		return Entry{}, false
	}
	return l.entries[i], true
}

// Root returns the current Merkle root over all entries.
func (l *Ledger) Root() Hash { return Root(l.leaves) }

// Record returns the raw record bytes of entry seq.
func (l *Ledger) Record(seq int) ([]byte, error) {
	if seq < 0 || seq >= len(l.entries) {
		return nil, fmt.Errorf("provenance: seq %d out of range [0, %d)", seq, len(l.entries))
	}
	return l.Stored(l.entries[seq].Key)
}

func (l *Ledger) manifestPath(key string) string {
	return filepath.Join(l.dir, manifestsDir, key+".json")
}

// Stored returns the record bytes stored under key, whether or not the
// key has been appended yet (an error wrapping os.ErrNotExist when
// nothing is stored). The bytes are unchecked: callers validate them.
func (l *Ledger) Stored(key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	return os.ReadFile(l.manifestPath(key))
}

// Store writes record under key ahead of its Append, atomically, so a
// writer killed before recording still leaves every finished record
// whole and reusable. It refuses a recorded key: that file is history.
func (l *Ledger) Store(key string, record []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if i, ok := l.byKey[key]; ok {
		return fmt.Errorf("provenance: key %s already recorded at seq %d; refusing to replace its record — the ledger is append-only", key, i)
	}
	return writeAtomic(filepath.Join(l.dir, manifestsDir), key+".json", record)
}

// writeAtomic replaces dir/name with b through a unique dot-prefixed
// temp file and a rename, so readers see the old bytes or the new ones.
func writeAtomic(dir, name string, b []byte) error {
	f, err := os.CreateTemp(dir, "."+name+".*.tmp")
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	if _, err = f.Write(b); err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 would hide records from other users
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return fmt.Errorf("provenance: writing %s: %w", name, err)
	}
	return nil
}

// Append records one (record, key, shard). Appending a key already in
// the ledger with byte-identical record bytes returns the existing entry
// with added=false; with different bytes it fails — the ledger refuses
// to rewrite history. Call Sync to publish the new head.
func (l *Ledger) Append(record []byte, key, shard string) (Entry, bool, error) {
	if err := checkKey(key); err != nil {
		return Entry{}, false, err
	}
	leaf := LeafHash(record)
	if i, ok := l.byKey[key]; ok {
		if l.entries[i].Leaf != leaf.String() {
			return Entry{}, false, fmt.Errorf(
				"provenance: key %s already recorded at seq %d with leaf %s; refusing to append different bytes (leaf %s) — the ledger is append-only",
				key, i, l.entries[i].Leaf, leaf)
		}
		return l.entries[i], false, nil
	}
	e := Entry{Seq: len(l.entries), Key: key, Leaf: leaf.String(), Shard: shard}

	// Record bytes first (often rewriting what Store left), then the
	// entry line: a crash between the two leaves a readable ledger plus
	// a stored record awaiting Append, never an entry without its record.
	if err := l.Store(key, record); err != nil {
		return Entry{}, false, err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, false, err
	}
	f, err := os.OpenFile(filepath.Join(l.dir, entriesFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return Entry{}, false, fmt.Errorf("provenance: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return Entry{}, false, fmt.Errorf("provenance: appending entry: %w", werr)
	}
	l.entries = append(l.entries, e)
	l.leaves = append(l.leaves, leaf)
	l.byKey[key] = e.Seq
	l.dirty = true
	return e, true, nil
}

// Sync publishes the current head: the Merkle root over every entry,
// chained to the previously synced root. It is a no-op when nothing was
// appended since the last Sync, so re-running an already-recorded sweep
// leaves every ledger byte untouched.
func (l *Ledger) Sync() (Head, error) {
	if !l.dirty && l.head.Size == len(l.entries) && l.head.Root != "" {
		return l.head, nil
	}
	head := Head{
		SchemaVersion: LedgerSchemaVersion,
		Size:          len(l.entries),
		Root:          l.Root().String(),
		PrevRoot:      l.head.Root,
	}
	if head.PrevRoot == head.Root {
		// Re-synced with no growth: keep the existing chain link.
		head.PrevRoot = l.head.PrevRoot
	}
	b, err := json.Marshal(head)
	if err != nil {
		return Head{}, err
	}
	if err := writeAtomic(l.dir, headFile, append(b, '\n')); err != nil {
		return Head{}, err
	}
	l.head = head
	l.dirty = false
	return head, nil
}

// Head returns the last synced head (zero if never synced).
func (l *Ledger) Head() Head { return l.head }

// Prove returns the inclusion proof of entry seq against the current
// tree, usable with VerifyInclusion and the current root.
func (l *Ledger) Prove(seq int) (Proof, error) {
	return Prove(l.leaves, seq)
}

// Verify re-reads the ledger from disk and checks every byte of it:
//
//   - HEAD.json parses and carries the current schema version;
//   - entries.ndjson parses, seqs are contiguous from 0, keys unique;
//   - every entry's record file exists and hashes to the entry's leaf;
//   - the Merkle root over the leaves equals HEAD.json's root, and the
//     head's size equals the entry count;
//   - every entry's inclusion proof verifies against that root.
//
// Any flipped bit in a record, an entry line or the head fails loudly
// with the offending seq/key/file. Verify uses only the on-disk state,
// never this Ledger's in-memory copy, so it is what `mirza-sweep verify`
// runs against a ledger produced by anyone.
func (l *Ledger) Verify() error {
	head, err := readHead(filepath.Join(l.dir, headFile))
	if err != nil {
		return err
	}
	disk := &Ledger{dir: l.dir}
	if err := disk.load(); err != nil {
		return err
	}
	entries, leaves := disk.entries, disk.leaves
	if len(entries) == 0 {
		return fmt.Errorf("provenance: %s: empty ledger (no entries)", l.dir)
	}
	for i, e := range entries {
		record, err := os.ReadFile(l.manifestPath(e.Key))
		if err != nil {
			return fmt.Errorf("provenance: %s: entry %d (%s): record missing: %w", l.dir, i, e.Key, err)
		}
		if got := LeafHash(record); got != leaves[i] {
			return fmt.Errorf("provenance: %s: entry %d (%s): record bytes hash to %s, entry says %s — record was modified",
				l.dir, i, e.Key, got, leaves[i])
		}
	}
	if head.Size != len(entries) {
		return fmt.Errorf("provenance: %s: head records %d entries, ledger has %d — entries were added or removed without a Sync",
			l.dir, head.Size, len(entries))
	}
	root := Root(leaves)
	if head.Root != root.String() {
		return fmt.Errorf("provenance: %s: recomputed root %s does not match head root %s — ledger was modified",
			l.dir, root, head.Root)
	}
	for i := range leaves {
		proof, err := Prove(leaves, i)
		if err != nil {
			return err
		}
		if err := VerifyInclusion(root, leaves[i], i, len(leaves), proof); err != nil {
			return fmt.Errorf("provenance: %s: entry %d: %w", l.dir, i, err)
		}
	}
	return nil
}

// load reads the entry log into l (empty when the file does not exist
// yet), checking its shape: seqs contiguous from 0, unique
// plain-file-name keys, well-formed leaf hashes.
func (l *Ledger) load() error {
	l.byKey = make(map[string]int)
	path := filepath.Join(l.dir, entriesFile)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		bad := func(err error) error { return fmt.Errorf("provenance: %s: line %d: %w", path, lineNo, err) }
		var e Entry
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return bad(err)
		}
		if err := checkKey(e.Key); err != nil {
			return bad(err)
		}
		if _, dup := l.byKey[e.Key]; dup {
			return bad(fmt.Errorf("key %s recorded twice", e.Key))
		}
		if e.Seq != len(l.entries) {
			return bad(fmt.Errorf("entry has seq %d, want %d (reordered or truncated entries)", e.Seq, len(l.entries)))
		}
		leaf, err := ParseHash(e.Leaf)
		if err != nil {
			return bad(err)
		}
		l.byKey[e.Key] = e.Seq
		l.entries = append(l.entries, e)
		l.leaves = append(l.leaves, leaf)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("provenance: %s: %w", path, err)
	}
	return nil
}

// readHead loads HEAD.json, refusing any other schema version: there is
// one reader, for the current layout.
func readHead(path string) (Head, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return Head{}, fmt.Errorf("provenance: %s: %w", path, os.ErrNotExist)
		}
		return Head{}, fmt.Errorf("provenance: %w", err)
	}
	var h Head
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&h); err != nil {
		return Head{}, fmt.Errorf("provenance: %s: %w", path, err)
	}
	if h.SchemaVersion != LedgerSchemaVersion {
		return Head{}, fmt.Errorf("provenance: %s: ledger schema %d, this build reads only schema %d — re-run the sweep into a fresh ledger directory",
			path, h.SchemaVersion, LedgerSchemaVersion)
	}
	return h, nil
}
