// Package mirza is a from-scratch Go reproduction of "MIRZA: Efficiently
// Mitigating Rowhammer with Randomization and ALERT" (HPCA 2026): the MIRZA
// mechanism itself, every baseline it is evaluated against (MINT+RFM,
// PRAC+ABO, Mithril, TRR), and the complete DDR5 memory-system simulation
// substrate the evaluation rests on.
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// per-experiment index, and EXPERIMENTS.md for recorded paper-vs-measured
// results. The runnable entry points are:
//
//	cmd/mirza-sim     - full-system simulation of one workload + mitigation
//	cmd/mirza-attack  - worst-case attack evaluation against any defense
//	cmd/mirza-bench   - regenerate every table and figure of the paper
//	cmd/mirza-serve   - the experiment pipeline as an HTTP/JSON daemon
//	cmd/mirza-sweep   - sweep grids with a verifiable provenance ledger
//	examples/...      - library usage walkthroughs
//
// The repository benchmark lives in bench/, a Go module of its own (see
// bench/README.md).
package mirza
