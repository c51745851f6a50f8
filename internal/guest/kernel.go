// Package guest models the VM (guest) kernel: its physical page frame
// layout at snapshot time, its buddy page allocator, and the two guest
// patches the evaluated systems rely on — SnapBPF's paravirtual PTE
// marking (§3.2) and FaaSnap's zero-on-free.
package guest

import (
	"fmt"
)

// MirrorBit is the most significant bit of the guest PFN space. The PV
// PTE-marking patch maps freshly allocated frames at gPFN|MirrorBit so
// the host can detect allocation faults and serve them with anonymous
// memory instead of snapshot reads (§3.2 of the paper).
const MirrorBit uint64 = 1 << 63

// IsMirror reports whether a faulting gPFN carries the mirror mark.
func IsMirror(gpfn uint64) bool { return gpfn&MirrorBit != 0 }

// Unmirror strips the mirror mark.
func Unmirror(gpfn uint64) uint64 { return gpfn &^ MirrorBit }

// Config describes a guest kernel at snapshot time.
type Config struct {
	// NrPages is the guest physical memory size in pages.
	NrPages int64

	// StatePages is the number of low frames occupied by the kernel
	// plus the initialized function state when the snapshot was taken.
	// Frames [StatePages, NrPages) are in the buddy allocator's free
	// pool, still holding whatever they held when last freed.
	StatePages int64

	// PVMarking enables the SnapBPF guest patch: the first mapping of
	// a frame allocated after restore uses the mirrored gPFN.
	PVMarking bool

	// ZeroOnFree enables the FaaSnap guest patch: freed frames are
	// zeroed, so snapshot scans can identify them by content.
	ZeroOnFree bool
}

// Kernel is the running guest kernel after a snapshot restore.
type Kernel struct {
	cfg   Config
	buddy *Buddy

	// allocs maps an allocation handle to its constituent PFN blocks,
	// in allocation order. A frame is located by walking them, so no
	// per-page list is ever built.
	allocs map[int32][]allocBlock

	// fresh is a bitset over guest frames: bit pfn is set while frame
	// pfn belongs to a live allocation made since restore and its first
	// guest mapping is still pending. With PVMarking that first touch
	// faults at the mirrored gPFN.
	fresh []uint64

	// Statistics.
	allocedPages int64
	freedPages   int64
}

type allocBlock struct {
	pfn   int64
	order int
}

// pages returns the number of frames in the block.
func (bl allocBlock) pages() int64 { return int64(1) << bl.order }

// NewKernel boots a guest kernel from a snapshot-time configuration.
// rotateSalt perturbs the allocator free lists, modelling the
// allocator-state drift between the record invocation and later
// invocations.
func NewKernel(cfg Config, rotateSalt int) (*Kernel, error) {
	if cfg.NrPages <= 0 || cfg.StatePages < 0 || cfg.StatePages > cfg.NrPages {
		return nil, fmt.Errorf("guest: bad config: %d state of %d pages", cfg.StatePages, cfg.NrPages)
	}
	k := &Kernel{
		cfg:    cfg,
		buddy:  NewBuddy(cfg.StatePages, cfg.NrPages-cfg.StatePages),
		allocs: make(map[int32][]allocBlock),
		fresh:  make([]uint64, (cfg.NrPages+63)/64),
	}
	k.buddy.Rotate(rotateSalt)
	return k, nil
}

// Config returns the kernel's snapshot-time configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Buddy exposes the page allocator (tests and the Faast metadata scan).
func (k *Kernel) Buddy() *Buddy { return k.buddy }

// AllocatedPages returns the cumulative pages allocated since restore.
func (k *Kernel) AllocatedPages() int64 { return k.allocedPages }

// FreedPages returns the cumulative pages freed since restore.
func (k *Kernel) FreedPages() int64 { return k.freedPages }

// Alloc allocates nPages frames under the given handle. Frames are
// taken as maximal buddy blocks; PFNAt and ForEachPFN read them back in
// allocation order. A failed allocation leaves no trace: the blocks
// already taken go back to the buddy allocator unmarked.
func (k *Kernel) Alloc(handle int32, nPages int64) error {
	if _, dup := k.allocs[handle]; dup {
		return fmt.Errorf("guest: allocation handle %d in use", handle)
	}
	if nPages <= 0 {
		return fmt.Errorf("guest: bad allocation size %d", nPages)
	}
	var blocks []allocBlock
	remaining := nPages
	for remaining > 0 {
		order := 0
		for order < MaxOrder && int64(1)<<(order+1) <= remaining {
			order++
		}
		pfn, err := k.buddy.AllocBlock(order)
		if err != nil {
			// Roll back: the blocks taken so far are not marked
			// fresh yet, so returning them is all it takes.
			for _, bl := range blocks {
				_ = k.buddy.FreeBlock(bl.pfn)
			}
			return err
		}
		blocks = append(blocks, allocBlock{pfn, order})
		remaining -= int64(1) << order
	}
	for _, bl := range blocks {
		k.setFresh(bl, true)
	}
	k.allocs[handle] = blocks
	k.allocedPages += nPages
	return nil
}

// Free releases the allocation behind handle. With ZeroOnFree the
// caller (VMM) is responsible for charging the zeroing writes; the
// kernel only records the state change.
func (k *Kernel) Free(handle int32) error {
	blocks, ok := k.allocs[handle]
	if !ok {
		return fmt.Errorf("guest: free of unknown handle %d", handle)
	}
	delete(k.allocs, handle)
	for _, bl := range blocks {
		k.setFresh(bl, false)
		if err := k.buddy.FreeBlock(bl.pfn); err != nil {
			return err
		}
		k.freedPages += bl.pages()
	}
	return nil
}

// setFresh sets or clears the fresh bit of every frame in bl.
func (k *Kernel) setFresh(bl allocBlock, on bool) {
	for pfn := bl.pfn; pfn < bl.pfn+bl.pages(); pfn++ {
		if on {
			k.fresh[pfn>>6] |= 1 << (pfn & 63)
		} else {
			k.fresh[pfn>>6] &^= 1 << (pfn & 63)
		}
	}
}

// PFNAt returns the frame at page offset off of a live allocation. It
// walks the allocation's buddy blocks (at most nPages/2^MaxOrder +
// MaxOrder of them) and allocates nothing. It reports false for an
// unknown handle and for an offset outside [0, nPages).
func (k *Kernel) PFNAt(handle int32, off int64) (int64, bool) {
	if off < 0 {
		return 0, false
	}
	for _, bl := range k.allocs[handle] {
		if n := bl.pages(); off >= n {
			off -= n
			continue
		}
		return bl.pfn + off, true
	}
	return 0, false
}

// ForEachPFN calls fn on every frame of a live allocation in order and
// reports whether the handle is live.
func (k *Kernel) ForEachPFN(handle int32, fn func(pfn int64)) bool {
	blocks, ok := k.allocs[handle]
	for _, bl := range blocks {
		for pfn := bl.pfn; pfn < bl.pfn+bl.pages(); pfn++ {
			fn(pfn)
		}
	}
	return ok
}

// AllocPFNs returns the frames of a live allocation in order. It builds
// the whole list, so it is for tests and debugging; the invocation path
// uses PFNAt and ForEachPFN.
func (k *Kernel) AllocPFNs(handle int32) ([]int64, bool) {
	var pfns []int64
	ok := k.ForEachPFN(handle, func(pfn int64) { pfns = append(pfns, pfn) })
	return pfns, ok
}

// TouchPFN translates a guest access to frame pfn into the gPFN the
// hardware will fault on. For the first touch of a frame allocated
// since restore under PV marking, that is the mirrored gPFN; the
// mirror state clears once reported, since the host maps both views on
// handling the fault (§3.2).
func (k *Kernel) TouchPFN(pfn int64) uint64 {
	if k.cfg.PVMarking && pfn >= 0 && pfn < k.cfg.NrPages {
		w, bit := &k.fresh[pfn>>6], uint64(1)<<(pfn&63)
		if *w&bit != 0 {
			*w &^= bit
			return uint64(pfn) | MirrorBit
		}
	}
	return uint64(pfn)
}
