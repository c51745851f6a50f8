package guest

import (
	"fmt"
	"testing"
)

func testCfg(pv bool) Config {
	return Config{NrPages: 1024, StatePages: 256, PVMarking: pv}
}

// mustAlloc allocates n frames under handle and returns them in order.
func mustAlloc(t testing.TB, k *Kernel, handle int32, n int64) []int64 {
	t.Helper()
	if err := k.Alloc(handle, n); err != nil {
		t.Fatal(err)
	}
	pfns, ok := k.AllocPFNs(handle)
	if !ok || int64(len(pfns)) != n {
		t.Fatalf("AllocPFNs(%d) = %d frames, %v; want %d", handle, len(pfns), ok, n)
	}
	return pfns
}

func TestKernelAllocFreeRoundTrip(t *testing.T) {
	k, err := NewKernel(testCfg(false), 0)
	if err != nil {
		t.Fatal(err)
	}
	pfns := mustAlloc(t, k, 1, 100)
	for _, p := range pfns {
		if p < 256 || p >= 1024 {
			t.Fatalf("pfn %d outside free pool", p)
		}
	}
	if k.AllocatedPages() != 100 {
		t.Fatalf("AllocatedPages = %d", k.AllocatedPages())
	}
	if err := k.Free(1); err != nil {
		t.Fatal(err)
	}
	if k.FreedPages() != 100 {
		t.Fatalf("FreedPages = %d", k.FreedPages())
	}
	if k.Buddy().NrFree() != 1024-256 {
		t.Fatalf("NrFree = %d", k.Buddy().NrFree())
	}
}

func TestKernelDuplicateHandle(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	mustAlloc(t, k, 1, 4)
	if err := k.Alloc(1, 4); err == nil {
		t.Fatal("duplicate handle accepted")
	}
}

func TestKernelFreeUnknownHandle(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	if err := k.Free(7); err == nil {
		t.Fatal("free of unknown handle accepted")
	}
}

func TestKernelOOMRollsBack(t *testing.T) {
	k, _ := NewKernel(Config{NrPages: 64, StatePages: 32}, 0)
	if err := k.Alloc(1, 1000); err == nil {
		t.Fatal("oversized alloc accepted")
	}
	// Roll-back: everything free again.
	if k.Buddy().NrFree() != 32 {
		t.Fatalf("NrFree = %d after failed alloc", k.Buddy().NrFree())
	}
}

func TestPVMarkingFirstTouchMirrored(t *testing.T) {
	k, _ := NewKernel(testCfg(true), 0)
	pfns := mustAlloc(t, k, 1, 2)
	g0 := k.TouchPFN(pfns[0])
	if !IsMirror(g0) {
		t.Fatalf("first touch not mirrored: %#x", g0)
	}
	if Unmirror(g0) != uint64(pfns[0]) {
		t.Fatalf("unmirror(%#x) = %d, want %d", g0, Unmirror(g0), pfns[0])
	}
	// Second touch uses the original PFN.
	if g := k.TouchPFN(pfns[0]); IsMirror(g) {
		t.Fatal("second touch still mirrored")
	}
}

func TestPVMarkingDisabled(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	pfns := mustAlloc(t, k, 1, 1)
	if g := k.TouchPFN(pfns[0]); IsMirror(g) {
		t.Fatal("mirrored touch with PV disabled")
	}
}

func TestPVMarkingOnlyFreshFrames(t *testing.T) {
	k, _ := NewKernel(testCfg(true), 0)
	// State pages were never allocated since restore: plain faults.
	if g := k.TouchPFN(5); IsMirror(g) {
		t.Fatal("snapshot-state page mirrored")
	}
}

func TestPVMarkingResetAcrossRealloc(t *testing.T) {
	k, _ := NewKernel(testCfg(true), 0)
	pfns := mustAlloc(t, k, 1, 4)
	for _, p := range pfns {
		k.TouchPFN(p) // consume mirror
	}
	if err := k.Free(1); err != nil {
		t.Fatal(err)
	}
	pfns2 := mustAlloc(t, k, 2, 4)
	// Reallocated frames are fresh again: first touch mirrors.
	if g := k.TouchPFN(pfns2[0]); !IsMirror(g) {
		t.Fatal("reallocated frame not mirrored on first touch")
	}
}

func TestAllocPFNsLookup(t *testing.T) {
	k, _ := NewKernel(testCfg(false), 0)
	pfns := mustAlloc(t, k, 3, 10)
	n := 0
	if !k.ForEachPFN(3, func(pfn int64) {
		if pfn != pfns[n] {
			t.Fatalf("ForEachPFN frame %d = %d, want %d", n, pfn, pfns[n])
		}
		n++
	}) || n != len(pfns) {
		t.Fatalf("ForEachPFN visited %d of %d frames", n, len(pfns))
	}
	if _, ok := k.AllocPFNs(99); ok {
		t.Fatal("lookup of unknown handle succeeded")
	}
	if k.ForEachPFN(99, func(int64) { t.Fatal("frame visited for unknown handle") }) {
		t.Fatal("ForEachPFN of unknown handle reported live")
	}
}

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(Config{NrPages: 0}, 0); err == nil {
		t.Fatal("zero-page kernel accepted")
	}
	if _, err := NewKernel(Config{NrPages: 10, StatePages: 11}, 0); err == nil {
		t.Fatal("state > total accepted")
	}
}

func TestSaltChangesAllocation(t *testing.T) {
	get := func(salt int) int64 {
		k, _ := NewKernel(Config{NrPages: 1 << 16, StatePages: 1 << 10}, salt)
		return mustAlloc(t, k, 1, 1024)[0]
	}
	if get(0) == get(3) {
		t.Fatal("salt did not change allocation placement")
	}
}

// TestAllocRollbackClearsFreshMarks pins the failed-allocation path: the
// blocks taken before the buddy allocator ran out go back to it, and
// none of their frames keeps a fresh mark, so a later touch of one
// faults at its plain gPFN like any other free frame.
func TestAllocRollbackClearsFreshMarks(t *testing.T) {
	k, _ := NewKernel(Config{NrPages: 64, StatePages: 32, PVMarking: true}, 0)
	mustAlloc(t, k, 1, 20) // leaves one 8-page and one 4-page block
	free := k.Buddy().FreePFNs()
	if len(free) != 12 {
		t.Fatalf("%d frames free after the first allocation, want 12", len(free))
	}
	// 14 = 8 + 4 + 2: the 8- and 4-page blocks are taken before the
	// 2-page request fails.
	if err := k.Alloc(2, 14); err == nil {
		t.Fatal("allocation beyond free memory accepted")
	}
	if got := k.Buddy().NrFree(); got != 12 {
		t.Fatalf("NrFree = %d after failed alloc, want 12", got)
	}
	if _, ok := k.PFNAt(2, 0); ok {
		t.Fatal("failed allocation left a live handle")
	}
	for _, pfn := range free {
		if !k.Buddy().IsFree(pfn) {
			t.Fatalf("frame %d not returned to the allocator", pfn)
		}
		if g := k.TouchPFN(pfn); g != uint64(pfn) {
			t.Fatalf("TouchPFN(%d) = %#x after rollback, want the unmirrored PFN", pfn, g)
		}
	}
	if k.AllocatedPages() != 20 {
		t.Fatalf("AllocatedPages = %d, want 20", k.AllocatedPages())
	}
}

// TestPFNAtMatchesAllocPFNs checks the block walk against the
// materialised frame list for every allocation size up to 3000 pages —
// past 2^MaxOrder, so allocations span several maximal blocks — under
// several allocator rotations, at every offset.
func TestPFNAtMatchesAllocPFNs(t *testing.T) {
	const state = 100 // unaligned buddy base
	for _, salt := range []int{0, 1, 3, 7, 12} {
		for n := int64(1); n <= 3000; n++ {
			k, _ := NewKernel(Config{NrPages: 1 << 13, StatePages: state, PVMarking: true}, salt)
			// A small live allocation ahead of the one under test
			// splits blocks, so the latter is not always contiguous.
			mustAlloc(t, k, 1, 3)
			pfns := mustAlloc(t, k, 2, n)
			for off, want := range pfns {
				if got, ok := k.PFNAt(2, int64(off)); !ok || got != want {
					t.Fatalf("salt %d n %d: PFNAt(%d) = %d, %v; want %d", salt, n, off, got, ok, want)
				}
			}
			// Block boundaries: blocks are the maximal powers of two
			// in n, capped at 2^MaxOrder, and each starts on a frame
			// aligned to its size relative to the buddy base.
			start := int64(0)
			for rem := n; rem > 0; {
				size := int64(1) << MaxOrder
				for size > rem {
					size >>= 1
				}
				first, ok1 := k.PFNAt(2, start)
				last, ok2 := k.PFNAt(2, start+size-1)
				if !ok1 || !ok2 || (first-state)%size != 0 || last != first+size-1 {
					t.Fatalf("salt %d n %d: block [%d,%d) maps to %d..%d (%v,%v), want an aligned %d-frame run",
						salt, n, start, start+size, first, last, ok1, ok2, size)
				}
				start += size
				rem -= size
			}
			for _, off := range []int64{n, n + 1, -1} {
				if pfn, ok := k.PFNAt(2, off); ok {
					t.Fatalf("salt %d n %d: PFNAt(%d) = %d, want out of range", salt, n, off, pfn)
				}
			}
			if _, ok := k.PFNAt(99, 0); ok {
				t.Fatalf("salt %d n %d: PFNAt on an unknown handle succeeded", salt, n)
			}
			if err := k.Free(2); err != nil {
				t.Fatal(err)
			}
			if _, ok := k.PFNAt(2, 0); ok {
				t.Fatalf("salt %d n %d: PFNAt on a freed handle succeeded", salt, n)
			}
		}
	}
}

// TestTouchPathAllocs pins the per-touch cost contract: resolving an
// allocation offset and translating the frame allocate nothing, however
// large the allocation. Rebuilding the allocation's frame list on every
// touch made each touch O(pages) in time and garbage.
func TestTouchPathAllocs(t *testing.T) {
	k, _ := NewKernel(Config{NrPages: 1 << 13, StatePages: 1 << 10, PVMarking: true}, 0)
	mustAlloc(t, k, 1, 4096)
	off := int64(0)
	avg := testing.AllocsPerRun(500, func() {
		pfn, ok := k.PFNAt(1, off)
		if !ok {
			t.Fatal("offset out of range")
		}
		k.TouchPFN(pfn)
		off = (off + 997) % 4096
	})
	if avg != 0 {
		t.Fatalf("PFNAt+TouchPFN allocates %.2f times per touch, want 0", avg)
	}
}

// touchSink keeps BenchmarkTouch's result live.
var touchSink uint64

// BenchmarkTouch measures one guest touch of a live allocation:
// PFNAt plus TouchPFN. ns/op grows only with the allocation's block
// count (pages/2^MaxOrder), not with its page count.
func BenchmarkTouch(b *testing.B) {
	for _, n := range []int64{64, 1024, 8192} {
		b.Run(fmt.Sprintf("pages=%d", n), func(b *testing.B) {
			k, _ := NewKernel(Config{NrPages: 1 << 14, StatePages: 1 << 10, PVMarking: true}, 0)
			mustAlloc(b, k, 1, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pfn, _ := k.PFNAt(1, int64(i)%n)
				touchSink = k.TouchPFN(pfn)
			}
		})
	}
}
