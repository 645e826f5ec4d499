package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Correctness is identity, not accuracy: a change that only speeds the
// simulator up must leave every simulated statistic of every op unchanged.
// Each checked op hashes the statistics that describe the modelled machine
// (never counters that describe how the simulator ran, such as kernel event
// or wake counts, which a legitimate optimisation may change). Seed 1 is
// pinned in testdata/digests.json; on every seed, all repetitions of an op
// and its traced run must hash alike.

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinnedDigests maps a digest set ("timing-bw", or "timing-bw@smoke" for
// the test scale) to its ops' seed-1 digests.
type pinnedDigests map[string]map[string]string

func loadPinned() (pinnedDigests, error) {
	var p pinnedDigests
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return p, nil
}

// digestOf hashes v's JSON encoding.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // only plain structs are hashed
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// digestBytes hashes raw bytes.
func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checker compares each op's digest with the pinned one (seed 1 only) and
// with the first digest the run saw for that op.
type checker struct {
	pinned map[string]string // nil when the seed is not pinned
	seen   map[string]string
	set    string // digest set name, for messages
}

func newChecker(set string, pinned pinnedDigests, seed uint64) *checker {
	c := &checker{seen: make(map[string]string), set: set}
	if seed == 1 {
		c.pinned = pinned[set]
		if c.pinned == nil {
			c.pinned = map[string]string{}
		}
	}
	return c
}

// check reports whether digest got is correct for op, and why not.
func (c *checker) check(op, got string) (bool, string) {
	if prev, ok := c.seen[op]; ok && prev != got {
		return false, fmt.Sprintf("%s %s: digest %s differs from this run's earlier %s", c.set, op, got, prev)
	}
	c.seen[op] = got
	if c.pinned == nil {
		return true, ""
	}
	want, ok := c.pinned[op]
	if !ok {
		return false, fmt.Sprintf("%s %s: no pinned seed-1 digest (observed %s)", c.set, op, got)
	}
	if want != got {
		return false, fmt.Sprintf("%s %s: digest %s, pinned %s", c.set, op, got, want)
	}
	return true, ""
}

// observed renders the run's digests in the testdata/digests.json layout,
// for pinning a new or changed op.
func (c *checker) observed() string {
	keys := make([]string, 0, len(c.seen))
	for k := range c.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%q: {", c.set)
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %q", k, c.seen[k])
	}
	b.WriteString("}")
	return b.String()
}
