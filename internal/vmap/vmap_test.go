package vmap

import (
	"testing"
	"testing/quick"
)

func TestTranslateStable(t *testing.T) {
	m := NewMapper(8 * SuperBytes)
	a := m.Translate(0, 0x1234)
	b := m.Translate(0, 0x1234)
	if a != b {
		t.Fatal("translation must be stable")
	}
	if a%PageBytes != 0x234 {
		t.Errorf("page offset not preserved: %x", a)
	}
}

func TestDistinctSpacesDistinctFrames(t *testing.T) {
	m := NewMapper(8 * SuperBytes)
	a := m.Translate(0, 0)
	b := m.Translate(1, 0)
	if a == b {
		t.Error("different address spaces must get different superblocks")
	}
	if m.MappedBlocks() != 2 {
		t.Errorf("blocks = %d", m.MappedBlocks())
	}
}

func TestSuperblockContiguity(t *testing.T) {
	m := NewMapper(8 * SuperBytes)
	// All addresses within one superblock stay physically contiguous
	// (relative offsets preserved), so mod-32MB structure survives.
	base := m.Translate(0, 0)
	for off := uint64(PageBytes); off < SuperBytes; off += 16 << 20 {
		p := m.Translate(0, off)
		if p != base+off {
			t.Fatalf("offset %x: got %x, want %x", off, p, base+off)
		}
	}
}

func TestAllocationsSpreadAcrossMemory(t *testing.T) {
	// 64 superblocks; allocating 16 must cover a wide range of the
	// physical space (steady-state clock spread), not pack low.
	m := NewMapper(64 * SuperBytes)
	var min, max uint64 = 1 << 62, 0
	for i := 0; i < 16; i++ {
		p := m.Translate(0, uint64(i)*SuperBytes)
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if span := max - min; span < uint64(32*SuperBytes) {
		t.Errorf("allocations span only %d bytes of the space", span)
	}
}

func TestNoDoubleAssignmentBeforeWrap(t *testing.T) {
	m := NewMapper(64 * SuperBytes)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		p := m.Translate(0, uint64(i)*SuperBytes) / SuperBytes
		if seen[p] {
			t.Fatalf("superblock %d assigned twice before exhaustion", p)
		}
		seen[p] = true
	}
}

func TestWraparoundReuses(t *testing.T) {
	m := NewMapper(4 * SuperBytes)
	f := func(v uint8) bool {
		p := m.Translate(1, uint64(v)*SuperBytes)
		return p < 4*SuperBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOffsetsWithinPage(t *testing.T) {
	m := NewMapper(2 * SuperBytes)
	f := func(page uint16, off uint16) bool {
		v := uint64(page)*PageBytes + uint64(off)%PageBytes
		p := m.Translate(2, v)
		return p%PageBytes == v%PageBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestASIDBounds is the regression test for the key-packing collision:
// before bounds validation, asid = 1<<24 silently keyed identically to
// asid = 0 (the shifted bits fell off the top of the uint64), merging two
// address spaces into one mapping.
func TestASIDBounds(t *testing.T) {
	m := NewMapper(8 << 30)

	if err := CheckASID(0); err != nil {
		t.Fatalf("CheckASID(0): %v", err)
	}
	if err := CheckASID(MaxASID); err != nil {
		t.Fatalf("CheckASID(MaxASID): %v", err)
	}
	for _, asid := range []int{-1, MaxASID + 1, MaxASID * 2} {
		if err := CheckASID(asid); err == nil {
			t.Errorf("CheckASID(%d): want error, got nil", asid)
		}
		if _, err := m.TranslateChecked(asid, 0); err == nil {
			t.Errorf("TranslateChecked(%d, 0): want error, got nil", asid)
		}
	}

	// The collision itself: the overflowing asid must NOT share asid 0's
	// physical placement (it must be rejected, not aliased).
	p0 := m.Translate(0, 0x1234)
	if p1, err := m.TranslateChecked(MaxASID+1, 0x1234); err == nil && p1 == p0 {
		t.Fatalf("asid %d aliased asid 0 at phys %#x", MaxASID+1, p0)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("Translate with out-of-range asid did not panic")
		}
	}()
	m.Translate(MaxASID+1, 0)
}

// TestOwnership checks the per-superblock owner attribution used by the
// multi-tenant experiments.
func TestOwnership(t *testing.T) {
	m := NewMapper(8 << 30)

	pa := m.Translate(1, 0)
	pb := m.Translate(2, 0)
	pc := m.Translate(2, SuperBytes) // second block of asid 2

	if asid, ok := m.OwnerOf(pa); !ok || asid != 1 {
		t.Errorf("OwnerOf(%#x) = %d,%v want 1,true", pa, asid, ok)
	}
	if asid, ok := m.OwnerOf(pb + 123); !ok || asid != 2 {
		t.Errorf("OwnerOf(%#x) = %d,%v want 2,true", pb+123, asid, ok)
	}
	if len(m.BlocksOf(1)) != 1 || len(m.BlocksOf(2)) != 2 {
		t.Errorf("BlocksOf: got %d,%d blocks want 1,2", len(m.BlocksOf(1)), len(m.BlocksOf(2)))
	}
	blocks := m.BlocksOf(2)
	if want := []uint64{pb / SuperBytes, pc / SuperBytes}; blocks[0] == blocks[1] ||
		(blocks[0] != want[0] && blocks[0] != want[1]) {
		t.Errorf("BlocksOf(2) = %v inconsistent with translations %v", blocks, want)
	}

	// Repeated touches do not reassign ownership.
	m.Translate(1, 100)
	if asid, _ := m.OwnerOf(pa); asid != 1 {
		t.Errorf("ownership changed on repeat touch: %d", asid)
	}
	// Untouched physical space has no owner.
	for block := uint64(0); block < m.totalSuper; block++ {
		if _, used := m.used[block]; !used {
			if _, ok := m.OwnerOf(block * SuperBytes); ok {
				t.Fatalf("free block %d has an owner", block)
			}
			break
		}
	}
}

// TestLastSlotSharing interleaves address spaces that share a
// last-translation slot (asids equal modulo lastSlots) across several
// superblocks each. Every (asid, superblock) pair must keep its own block,
// and blocks must still be handed out in first-touch order along the
// allocator stride.
func TestLastSlotSharing(t *testing.T) {
	m := NewMapper(64 * SuperBytes)
	asids := []int{3, 3 + lastSlots, 3 + 2*lastSlots, 4}
	firstTouch := map[[2]uint64]uint64{} // (asid, vsuper) -> first-touch index
	for i := 0; i < 400; i++ {
		asid := asids[i%len(asids)]
		vsuper := uint64(i/len(asids)) % 5
		if i%7 == 0 {
			vsuper = 0 // revisit an older superblock
		}
		vaddr := vsuper*SuperBytes + uint64(i)*4096%SuperBytes
		key := [2]uint64{uint64(asid), vsuper}
		if _, ok := firstTouch[key]; !ok {
			firstTouch[key] = uint64(len(firstTouch))
		}
		want := (firstTouch[key]*m.stride)%m.totalSuper*SuperBytes + vaddr%SuperBytes
		if got := m.Translate(asid, vaddr); got != want {
			t.Fatalf("touch %d: asid %d vsuper %d -> %#x, want %#x", i, asid, vsuper, got, want)
		}
		if owner, _ := m.OwnerOf(want); owner != asid {
			t.Fatalf("touch %d: block owned by %d, want %d", i, owner, asid)
		}
	}
	if m.MappedBlocks() != len(firstTouch) {
		t.Errorf("%d blocks mapped, want %d", m.MappedBlocks(), len(firstTouch))
	}
	for _, asid := range asids {
		if n := len(m.BlocksOf(asid)); n != 5 {
			t.Errorf("asid %d owns %d blocks, want 5", asid, n)
		}
	}
}
