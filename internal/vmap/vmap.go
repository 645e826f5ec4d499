// Package vmap models the OS virtual-to-physical mapping assumed by the
// paper's methodology (Section III.A): pages allocated on first touch by a
// clock-style allocator.
//
// Two properties of real long-running systems matter for DRAM studies and
// are modeled explicitly:
//
//  1. Local contiguity: transparent huge pages and buddy-allocator locality
//     keep virtual locality physically contiguous at multi-megabyte
//     granularity (SuperBytes = 32MB here), so a program's data-structure
//     layout — including the power-of-two stride patterns that create
//     per-subarray hot spots — survives translation.
//  2. Global spread: after uptime the clock hand has swept the whole
//     physical space, so allocations scatter across all of memory rather
//     than packing into the lowest rows. The allocator hands out
//     superblocks along a fixed coprime stride of the physical superblock
//     space, a deterministic stand-in for that steady state.
package vmap

import (
	"fmt"
	"sort"
)

// PageBytes is the base OS page size.
const PageBytes = 4096

// SuperBytes is the granularity of physical contiguity (and of allocation).
// 512MB — a handful of buddy-allocator zones — preserves a workload's
// spatial structure (both the mod-32MB stride classes that create
// per-subarray hot spots and the page-level contiguity that concentrates
// sequentially-mapped footprints into few subarrays, Table VI), while the
// scattered placement of blocks across all of memory reflects a
// long-running system's occupancy.
const SuperBytes = 512 << 20

// Key layout: lookups are keyed asid<<asidShift | vsuper, so an address
// space may span at most 1<<asidShift superblocks (512 TB of virtual
// footprint) and at most MaxASID+1 address spaces are representable.
// Both limits are validated — see CheckASID and Translate — because a
// silent wrap of either field would alias two different address spaces
// onto one mapping, which for a RowHammer study silently merges tenants.
const (
	asidShift = 40
	vsuperMax = uint64(1)<<asidShift - 1

	// MaxASID is the largest valid address-space identifier.
	MaxASID = int(uint64(1)<<(64-asidShift) - 1)
)

// lastSlots is the number of last-translation slots in front of the block
// map, a power of two: an asid uses slot asid mod lastSlots.
const lastSlots = 16

// lastBlock remembers one key's physical superblock.
type lastBlock struct {
	key   uint64
	block uint64
	valid bool
}

// Mapper assigns physical superblocks to (address-space, virtual
// superblock) pairs on first touch.
type Mapper struct {
	totalSuper uint64
	stride     uint64
	next       uint64
	blocks     map[uint64]uint64 // asid<<asidShift | vsuper -> physical superblock
	used       map[uint64]bool
	owners     map[uint64]int // physical superblock -> owning asid
	// last caches each asid's most recent translation: consecutive
	// accesses of one address space mostly stay in one 512MB superblock,
	// so most translations skip the map lookup.
	last [lastSlots]lastBlock
}

// NewMapper creates a mapper over a physical memory of capacityBytes.
func NewMapper(capacityBytes uint64) *Mapper {
	if capacityBytes < SuperBytes {
		panic(fmt.Sprintf("vmap: capacity %d smaller than one superblock", capacityBytes))
	}
	total := capacityBytes / SuperBytes
	// A stride near the golden ratio of the space, made coprime, visits
	// every superblock exactly once while scattering consecutive
	// allocations across the whole physical range.
	stride := uint64(float64(total)*0.6180339887) | 1
	for gcd(stride, total) != 1 {
		stride += 2
	}
	return &Mapper{
		totalSuper: total,
		stride:     stride,
		blocks:     make(map[uint64]uint64),
		used:       make(map[uint64]bool),
		owners:     make(map[uint64]int),
	}
}

// CheckASID reports whether asid can be keyed without colliding with
// another address space. Callers that accept ASIDs from configuration
// should validate them here, at setup time, so the per-access Translate
// path stays check-free aside from its own last-resort panic.
func CheckASID(asid int) error {
	if asid < 0 || asid > MaxASID {
		return fmt.Errorf("vmap: asid %d out of range [0, %d]: the mapping key packs the asid above %d bits of virtual superblock index, so a wider asid would alias another address space", asid, MaxASID, asidShift)
	}
	return nil
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Translate returns the physical address for vaddr in address space asid,
// allocating a superblock on first touch. Offsets within the superblock
// are preserved. Out-of-range inputs panic with the TranslateChecked
// error; validate ASIDs with CheckASID before entering the access path.
func (m *Mapper) Translate(asid int, vaddr uint64) uint64 {
	phys, err := m.TranslateChecked(asid, vaddr)
	if err != nil {
		panic(err)
	}
	return phys
}

// TranslateChecked is Translate with the key-packing bounds enforced as a
// descriptive error instead of a silent collision: an asid wider than the
// key's asid field or a virtual footprint past the vsuper field would
// alias a different address space's mappings.
func (m *Mapper) TranslateChecked(asid int, vaddr uint64) (uint64, error) {
	if err := CheckASID(asid); err != nil {
		return 0, err
	}
	vsuper := vaddr / SuperBytes
	if vsuper > vsuperMax {
		return 0, fmt.Errorf("vmap: asid %d vaddr %#x exceeds the %d-bit virtual superblock field (max superblock index %d)", asid, vaddr, asidShift, vsuperMax)
	}
	key := uint64(asid)<<asidShift | vsuper
	slot := &m.last[asid&(lastSlots-1)]
	if slot.valid && slot.key == key {
		return slot.block*SuperBytes + vaddr%SuperBytes, nil
	}
	block, ok := m.blocks[key]
	if !ok {
		block = (m.next * m.stride) % m.totalSuper
		m.next++
		// After a full sweep the clock hand reclaims; probe linearly for
		// determinism when wrapped.
		for m.used[block] && uint64(len(m.used)) < m.totalSuper {
			block = (block + 1) % m.totalSuper
		}
		m.used[block] = true
		m.blocks[key] = block
		m.owners[block] = asid
	}
	*slot = lastBlock{key: key, block: block, valid: true}
	return block*SuperBytes + vaddr%SuperBytes, nil
}

// OwnerOf returns the asid owning the superblock containing physical
// address phys, or ok=false if that superblock is unallocated. This is
// the attribution primitive for multi-tenant studies: a disturbed row is
// charged to whichever tenant's data lives there.
func (m *Mapper) OwnerOf(phys uint64) (asid int, ok bool) {
	asid, ok = m.owners[phys/SuperBytes]
	return asid, ok
}

// BlocksOf returns the physical superblock indices owned by asid, sorted.
func (m *Mapper) BlocksOf(asid int) []uint64 {
	var out []uint64
	for block, owner := range m.owners {
		if owner == asid {
			out = append(out, block)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Mapped returns the number of 4KB pages currently mapped (superblocks are
// accounted as their page equivalents).
func (m *Mapper) Mapped() int { return len(m.blocks) * (SuperBytes / PageBytes) }

// MappedBlocks returns the number of mapped superblocks.
func (m *Mapper) MappedBlocks() int { return len(m.blocks) }

// Frames returns the total number of physical 4KB frames.
func (m *Mapper) Frames() uint64 { return m.totalSuper * (SuperBytes / PageBytes) }
