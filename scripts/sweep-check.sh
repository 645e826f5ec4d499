#!/usr/bin/env bash
# sweep-check.sh — end-to-end check of the sweep engine and its
# tamper-evident provenance ledger.
#
# Builds mirza-bench and mirza-sweep, runs a tiny table1 grid at
# -workers 2 and again (fresh ledger) at -workers 1, asserts the two
# ledger directories are byte-identical file-for-file, verifies every
# Merkle inclusion proof with `mirza-sweep verify`, exercises the
# incremental rerun (recorded shards are reused from the ledger, each
# manifest stored exactly once), and finally flips one byte of a
# recorded manifest to prove verification fails loudly. Run by
# `make sweep-check` and CI.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
# An untrapped SIGINT/SIGTERM kills the shell without running the EXIT
# trap; convert them into a normal exit so the temp dir is always removed.
trap 'rm -rf "$workdir"; trap - INT; exit 130' INT
trap 'rm -rf "$workdir"; trap - TERM; exit 143' TERM

fail() {
    echo "sweep-check: FAIL: $*" >&2
    exit 1
}

echo "sweep-check: building mirza-bench and mirza-sweep"
go build -o "$workdir/mirza-bench" ./cmd/mirza-bench
go build -o "$workdir/mirza-sweep" ./cmd/mirza-sweep
sweep="$workdir/mirza-sweep"

grid=(-exp table1 -seeds 1-3 -quick -bench "$workdir/mirza-bench")

echo "sweep-check: grid run at -workers 2"
"$sweep" run "${grid[@]}" -ledger "$workdir/a" -workers 2 -table "$workdir/a.md" \
    >"$workdir/run-a.txt" || fail "2-worker sweep failed: $(cat "$workdir/run-a.txt")"

echo "sweep-check: same grid at -workers 1 (fresh ledger)"
"$sweep" run "${grid[@]}" -ledger "$workdir/b" -workers 1 -table "$workdir/b.md" \
    >"$workdir/run-b.txt" || fail "1-worker sweep failed: $(cat "$workdir/run-b.txt")"

# The determinism contract: the whole ledger directory — entries, head,
# every recorded manifest — and the rendered table are byte-identical at
# any -workers.
diff -r "$workdir/a" "$workdir/b" >/dev/null \
    || fail "-workers 2 ledger differs from -workers 1 (run 'diff -r' on them)"
cmp -s "$workdir/a.md" "$workdir/b.md" \
    || fail "rendered sweep tables differ between worker counts"
grep -q "Ledger root:" "$workdir/a.md" || fail "sweep table lacks the ledger-root footer"

echo "sweep-check: verify (every entry, every inclusion proof)"
"$sweep" verify -ledger "$workdir/a" >"$workdir/verify.txt" \
    || fail "verification of an untampered ledger failed: $(cat "$workdir/verify.txt")"
grep -q "^ok: 3 entries verified" "$workdir/verify.txt" \
    || fail "verify did not report 3 entries: $(cat "$workdir/verify.txt")"

echo "sweep-check: incremental rerun (seeds 1-4: 3 cached, 1 new)"
"$sweep" run -exp table1 -seeds 1-4 -quick -bench "$workdir/mirza-bench" \
    -ledger "$workdir/a" -workers 2 >"$workdir/run-c.txt" \
    || fail "incremental rerun failed: $(cat "$workdir/run-c.txt")"
[[ "$(grep -c '^cached ' "$workdir/run-c.txt")" -eq 3 ]] \
    || fail "incremental rerun did not reuse 3 cached shards: $(cat "$workdir/run-c.txt")"
grep -q "(+1)" "$workdir/run-c.txt" \
    || fail "incremental rerun did not append exactly one entry: $(cat "$workdir/run-c.txt")"
"$sweep" verify -ledger "$workdir/a" >/dev/null || fail "ledger fails verify after the incremental append"
# The ledger is its own cache: one manifest file per entry, no copies.
n_manifests=$(find "$workdir/a/manifests" -name '*.json' | wc -l)
n_entries=$(grep -c . "$workdir/a/entries.ndjson")
[[ "$n_manifests" -eq "$n_entries" ]] \
    || fail "ledger holds $n_manifests manifest files for $n_entries entries"
[[ ! -e "$workdir/a/cache" ]] || fail "ledger directory still has a cache/ copy"

echo "sweep-check: single inclusion proof (prove -seq 2)"
"$sweep" prove -ledger "$workdir/a" -seq 2 >"$workdir/prove.txt" \
    || fail "prove failed: $(cat "$workdir/prove.txt")"
grep -q "proof verifies" "$workdir/prove.txt" || fail "prove output lacks a verified proof"

echo "sweep-check: tamper detection (flip one manifest byte)"
victim=$(ls "$workdir"/a/manifests/*.json | head -n1)
# Overwrite one byte in place (length unchanged): the entry's leaf hash
# no longer matches the recorded bytes, so verify must refuse the ledger.
printf 'X' | dd of="$victim" bs=1 seek=10 conv=notrunc status=none
if "$sweep" verify -ledger "$workdir/a" >"$workdir/tamper.txt" 2>&1; then
    fail "verify accepted a tampered manifest"
fi
grep -q "FAIL" "$workdir/tamper.txt" || fail "tampered verify did not fail loudly: $(cat "$workdir/tamper.txt")"

echo "sweep-check: OK (byte-identical across worker counts, proofs verify, tamper detected)"
