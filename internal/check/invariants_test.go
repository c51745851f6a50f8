package check

import (
	"fmt"
	"reflect"
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/hostmm"
	"snapbpf/internal/kvm"
	"snapbpf/internal/pagecache"
	"snapbpf/internal/sim"
	"snapbpf/internal/snapshot"
	"snapbpf/internal/vmm"
)

// fixture is a checked host driven by synthetic observer events: one
// address space with a file mapped at page 0 and part of that file
// really cached, so the page-cache count cross-check holds until a
// case breaks it on purpose.
type fixture struct {
	c   *Checker
	h   *vmm.Host
	as  *hostmm.AddressSpace
	ino *pagecache.Inode
	vm  *kvm.VM
	p   *sim.Proc
}

// fileTag is the registered content of file page i.
func fileTag(i int64) uint64 { return 1000 + uint64(i) }

// microVM wraps the fixture's space as a sandbox whose first 16 frames
// are snapshot state with content tag 500+pfn.
func (f *fixture) microVM() *vmm.MicroVM {
	img := &snapshot.MemoryImage{NrPages: 256, StatePages: 16, PageTags: make([]uint64, 256)}
	for i := range img.PageTags {
		img.PageTags[i] = 500 + uint64(i)
	}
	return &vmm.MicroVM{Name: "vm", Image: img, AS: f.as, KVM: f.vm}
}

// newFixture builds a checked host with an nrPages-page address space
// whose first filePages pages map (VMA only, no PTEs) a filePages-page
// file with content fileTag(i), of which the first cached pages are
// really in the page cache.
func newFixture(nrPages, filePages, cached int64) *fixture {
	h := vmm.NewHost(blockdev.MicronSATA5300())
	f := &fixture{c: New(h, nil), h: h}
	f.as = h.MM.NewAddressSpace("as", nrPages)
	f.ino = h.Cache.NewInode("f", filePages)
	f.vm = &kvm.VM{AS: f.as, NrPages: nrPages}
	tags := make([]uint64, filePages)
	for i := range tags {
		tags[i] = fileTag(int64(i))
	}
	f.c.RegisterFileTags(f.ino, tags)
	f.run(func(f *fixture) {
		f.ino.ReadaheadAsync(0, cached)
		f.as.MMapFile(f.p, 0, filePages, f.ino, 0)
	})
	return f
}

// run runs events inside a new simulated process, f.p, until the
// engine drains.
func (f *fixture) run(events func(f *fixture)) {
	f.h.Eng.Go("case", func(p *sim.Proc) {
		f.p = p
		events(f)
	})
	f.h.Eng.Run()
}

// violations returns every recorded violation as "invariant: detail".
func (f *fixture) violations() []string {
	var got []string
	for _, v := range f.c.Violations() {
		got = append(got, v.Invariant+": "+v.Detail)
	}
	return got
}

// runFixture runs events on the 256-page fixture with file pages 0-7
// cached and, when finish is set, calls Finish once the engine drains.
func runFixture(t *testing.T, events func(f *fixture), finish bool) (*fixture, []string) {
	t.Helper()
	f := newFixture(256, 128, 8)
	f.run(events)
	if finish {
		_ = f.c.Finish() // the violations are read back below
	}
	return f, f.violations()
}

// TestInvariantTable pins, one case per invariant the shadow page
// tables, the inode shadow and the access stacks feed, the exact
// diagnostics a synthetic event sequence produces, including the
// collateral ones a broken sequence also trips.
func TestInvariantTable(t *testing.T) {
	const (
		page = 10 // an address-space page outside the cached file range
		idx  = 3  // a cached file page
	)
	cases := []struct {
		name   string
		events func(f *fixture)
		finish bool
		want   func(f *fixture) []string
	}{
		{
			name: "pte-double-map",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FilePageMapped(f.as, page, f.ino, idx)
			},
			want: func(*fixture) []string {
				return []string{"pte-double-map: as page 10 file-mapped twice"}
			},
		},
		{
			name: "pte-state/file-over-anon",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.FilePageMapped(f.as, page, f.ino, idx)
			},
			want: func(*fixture) []string {
				return []string{"pte-state: as page 10 file-mapped over an anonymous page"}
			},
		},
		{
			name: "pte-state/anon-over-file",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.AnonInstalled(f.as, page, 7, true)
			},
			want: func(*fixture) []string {
				return []string{"pte-state: as page 10 anonymous install over a live file mapping"}
			},
		},
		{
			name: "pte-state/zero-fill-over-file",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FaultResolved(f.p, f.as, page, true, hostmm.FaultZeroFill)
			},
			want: func(*fixture) []string {
				return []string{
					"pte-state: as page 10 zero-fill over a live file mapping",
					"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages",
				}
			},
		},
		{
			// After a pte-state violation the anonymous and file states
			// of one page coexist: each later event sees both, and each
			// can be torn down on its own.
			name: "pte-state/coexisting-states",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FaultResolved(f.p, f.as, page, true, hostmm.FaultMinor)
				f.c.FaultResolved(f.p, f.as, page, false, hostmm.FaultCoW)
				f.c.FilePageUnmapped(f.as, page, f.ino, idx)
				f.c.AnonDropped(f.as, page)
				f.c.FilePageUnmapped(f.as, page, f.ino, idx)
				f.c.AnonDropped(f.as, page)
			},
			want: func(*fixture) []string {
				return []string{
					"pte-state: as page 10 file-mapped over an anonymous page",
					"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages",
					"cow-file-pte-live: as page 10 CoW left the file PTE mapped",
					"cow-outside-guest-access: as page 10 broke CoW outside any guest access",
					"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages",
					"pte-unmap-mismatch: as page 10 unmapped from f page 3 but shadow has {ino:<nil> fileIdx:0}",
					"anon-drop-absent: as page 10 dropped while not anonymous",
				}
			},
		},
		{
			name: "map-uncached-page",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, 100)
			},
			want: func(*fixture) []string {
				return []string{"map-uncached-page: as page 10 maps f page 100 which is not cached"}
			},
		},
		{
			name: "pte-unmap-mismatch/absent",
			events: func(f *fixture) {
				f.c.FilePageUnmapped(f.as, page, f.ino, idx)
			},
			want: func(*fixture) []string {
				return []string{"pte-unmap-mismatch: as page 10 unmapped from f page 3 but shadow has {ino:<nil> fileIdx:0}"}
			},
		},
		{
			name: "pte-unmap-mismatch/other-file-page",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FilePageUnmapped(f.as, page, f.ino, idx+1)
			},
			want: func(f *fixture) []string {
				return []string{fmt.Sprintf(
					"pte-unmap-mismatch: as page 10 unmapped from f page 4 but shadow has {ino:%p fileIdx:3}", f.ino)}
			},
		},
		{
			// The derived refcount of a file page never falls below the
			// number of shadow PTEs naming it, so rmap-underflow is a
			// guard no event sequence reaches: a second unmap of one
			// double-mapped PTE is a mismatch, not an underflow, and the
			// surviving reference shows at Finish.
			name: "rmap-underflow/unreachable",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FilePageUnmapped(f.as, page, f.ino, idx)
				f.c.FilePageUnmapped(f.as, page, f.ino, idx)
			},
			finish: true,
			want: func(*fixture) []string {
				return []string{
					"pte-double-map: as page 10 file-mapped twice",
					"pte-unmap-mismatch: as page 10 unmapped from f page 3 but shadow has {ino:<nil> fileIdx:0}",
					"rmap-dedup-accounting: f page 3: MapCount=0, derived rmap refs=1",
				}
			},
		},
		{
			name: "anon-double-install",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.AnonInstalled(f.as, page, 8, true)
			},
			want: func(*fixture) []string {
				return []string{"anon-double-install: as page 10 installed while already anonymous"}
			},
		},
		{
			name: "anon-drop-absent",
			events: func(f *fixture) {
				f.c.AnonDropped(f.as, page)
			},
			want: func(*fixture) []string {
				return []string{"anon-drop-absent: as page 10 dropped while not anonymous"}
			},
		},
		{
			name: "anon-accounting/fault",
			events: func(f *fixture) {
				f.c.FaultResolved(f.p, f.as, page, false, hostmm.FaultZeroFill)
			},
			want: func(*fixture) []string {
				return []string{"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages"}
			},
		},
		{
			name: "anon-accounting/release",
			events: func(f *fixture) {
				f.as.InstallAnonZeroPage(f.p, page)
				f.c.AnonDropped(f.as, page)
				f.c.SpaceReleased(f.as)
			},
			want: func(*fixture) []string {
				return []string{"anon-accounting: as released with AnonPages=1"}
			},
		},
		{
			name: "anon-total-accounting",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.VMDone(f.microVM())
			},
			want: func(*fixture) []string {
				return []string{
					"anon-accounting: vm: AnonPages=0 but shadow has 1 anonymous pages",
					"anon-total-accounting: MM reports 0 anonymous pages, shadows hold 1",
				}
			},
		},
		{
			// A released space no longer counts towards the total, even
			// when events keep arriving for it.
			name: "anon-total-accounting/released-space",
			events: func(f *fixture) {
				other := f.h.MM.NewAddressSpace("other", 64)
				f.c.SpaceReleased(other)
				f.c.AnonInstalled(other, 1, 7, true)
				f.c.VMDone(f.microVM())
			},
			want: func(*fixture) []string { return nil },
		},
		{
			// Creating the fixture's space a second time starts a fresh
			// shadow, and the old shadow's anonymous pages leave the
			// live total, so the total cross-check stays quiet.
			name: "space-recreated",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.SpaceCreated(f.as)
				f.c.VMDone(f.microVM())
			},
			want: func(*fixture) []string {
				return []string{"space-recreated: as created twice"}
			},
		},
		{
			// A checker attached after the fixture's space was created
			// reports the space once, then tracks it.
			name: "space-untracked",
			events: func(f *fixture) {
				f.c = New(f.h, nil)
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.AnonDropped(f.as, page)
			},
			want: func(*fixture) []string {
				return []string{"space-untracked: as observed before SpaceCreated"}
			},
		},
		{
			name: "cache-double-insert",
			events: func(f *fixture) {
				f.c.PageInserted(f.ino, idx, false)
			},
			want: func(*fixture) []string {
				return []string{"cache-double-insert: f page 3 inserted while present"}
			},
		},
		{
			name: "cache-evict-absent",
			events: func(f *fixture) {
				f.c.PageEvicted(f.ino, 100)
			},
			want: func(*fixture) []string {
				return []string{"cache-evict-absent: f page 100 evicted while absent"}
			},
		},
		{
			name: "cache-remove-absent",
			events: func(f *fixture) {
				f.c.PageRemoved(f.ino, 100)
			},
			want: func(*fixture) []string {
				return []string{"cache-remove-absent: f page 100 removeed while absent"}
			},
		},
		{
			name: "evict-mapped-page",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.PageEvicted(f.ino, idx)
			},
			want: func(*fixture) []string {
				return []string{
					"cache-count-accounting: evict: cache reports 8 pages, shadow 7",
					"evict-mapped-page: f page 3 reclaimed with 1 derived rmap refs",
				}
			},
		},
		{
			name: "remove-mapped-page",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, idx)
				f.c.FilePageMapped(f.as, page+1, f.ino, idx)
				f.c.PageRemoved(f.ino, idx)
			},
			want: func(*fixture) []string {
				return []string{
					"cache-count-accounting: remove: cache reports 8 pages, shadow 7",
					"remove-mapped-page: f page 3 dropped with 2 derived rmap refs",
				}
			},
		},
		{
			name: "rmap-uncached-ref",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, page, f.ino, 100)
			},
			finish: true,
			want: func(*fixture) []string {
				return []string{
					"map-uncached-page: as page 10 maps f page 100 which is not cached",
					"rmap-uncached-ref: f page 100 holds 1 rmap refs but is not cached",
				}
			},
		},
		{
			name: "access-unbalanced/end-without-begin",
			events: func(f *fixture) {
				f.c.AccessEnd(f.p, f.vm, 5, false, false)
			},
			want: func(*fixture) []string {
				return []string{"access-unbalanced: AccessEnd pfn 5 without AccessBegin"}
			},
		},
		{
			name: "access-unbalanced/open-at-finish",
			events: func(f *fixture) {
				f.c.AccessBegin(f.p, f.vm, 5, false)
				f.c.AccessBegin(f.p, f.vm, 6, false)
				f.c.AccessEnd(f.p, f.vm, 6, false, false)
			},
			finish: true,
			want: func(*fixture) []string {
				return []string{"access-unbalanced: run ended with 1 guest accesses still open"}
			},
		},
		{
			name: "access-mismatch",
			events: func(f *fixture) {
				f.c.AccessBegin(f.p, f.vm, 5, false)
				f.c.AccessEnd(f.p, f.vm, 6, false, false)
			},
			finish: true,
			want: func(*fixture) []string {
				return []string{"access-mismatch: AccessEnd (pfn 6 write false) does not match AccessBegin (pfn 5 write false)"}
			},
		},
		{
			name: "write-on-shared-page",
			events: func(f *fixture) {
				f.c.FilePageMapped(f.as, 5, f.ino, 5)
				f.c.AccessBegin(f.p, f.vm, 5, true)
				f.c.AccessEnd(f.p, f.vm, 5, true, false)
			},
			want: func(*fixture) []string {
				return []string{"write-on-shared-page: guest write to pfn 5 landed on non-anonymous host page 5"}
			},
		},
		{
			name: "pv-mirror-anon",
			events: func(f *fixture) {
				f.c.AccessBegin(f.p, f.vm, 5, false)
				f.c.AccessEnd(f.p, f.vm, 5, false, true)
			},
			want: func(*fixture) []string {
				return []string{"pv-mirror-anon: mirror access to pfn 5 left host page 5 non-anonymous"}
			},
		},
		{
			name: "cow-outside-guest-access",
			events: func(f *fixture) {
				f.c.FaultResolved(f.p, f.as, page, true, hostmm.FaultCoW)
			},
			want: func(*fixture) []string {
				return []string{
					"cow-outside-guest-access: as page 10 broke CoW outside any guest access",
					"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages",
				}
			},
		},
		{
			name: "cow-under-read",
			events: func(f *fixture) {
				f.c.AccessBegin(f.p, f.vm, page, false)
				f.c.FaultResolved(f.p, f.as, page, true, hostmm.FaultCoW)
				f.c.AccessEnd(f.p, f.vm, page, false, false)
			},
			finish: true,
			want: func(*fixture) []string {
				return []string{
					"cow-under-read: as page 10 broke CoW under a guest read with patched KVM",
					"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages",
				}
			},
		},
		{
			name: "cow-under-read/unpatched-kvm",
			events: func(f *fixture) {
				f.vm.ForceWriteMapping = true
				f.c.AccessBegin(f.p, f.vm, page, false)
				f.c.FaultResolved(f.p, f.as, page, true, hostmm.FaultCoW)
				f.c.AccessEnd(f.p, f.vm, page, false, false)
			},
			want: func(*fixture) []string {
				return []string{"anon-accounting: as: AnonPages=0 but shadow has 1 anonymous pages"}
			},
		},
		{
			name: "space-release-leak",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, page, 7, true)
				f.c.FilePageMapped(f.as, page+1, f.ino, idx)
				f.c.SpaceReleased(f.as)
			},
			want: func(*fixture) []string {
				return []string{"space-release-leak: as released with 2 shadow PTEs live"}
			},
		},
		{
			name: "digest-unknown-content",
			events: func(f *fixture) {
				f.c.AnonInstalled(f.as, 2, 0, false)
				f.c.VMDone(f.microVM())
			},
			want: func(*fixture) []string {
				return []string{
					"anon-accounting: vm: AnonPages=0 but shadow has 1 anonymous pages",
					"anon-total-accounting: MM reports 0 anonymous pages, shadows hold 1",
					"digest-unknown-content: vm: state pfn 2 has untracked content",
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, got := runFixture(t, tc.events, tc.finish)
			if want := tc.want(f); !reflect.DeepEqual(got, want) {
				t.Errorf("violations:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestSyntheticDigest pins the digest of a sandbox whose state frames
// are a mix of anonymous (zero-filled then written, CoW-copied then
// written), file-mapped and untouched pages.
func TestSyntheticDigest(t *testing.T) {
	var digest uint64
	_, got := runFixture(t, func(f *fixture) {
		f.as.InstallAnonZeroPage(f.p, 1)
		f.as.HandleFault(f.p, 2, false) // maps cached file page 2
		f.c.AccessBegin(f.p, f.vm, 4, true)
		f.as.HandleFault(f.p, 4, true) // CoW copy of file page 4
		f.c.AccessEnd(f.p, f.vm, 4, true, false)
		f.c.AccessBegin(f.p, f.vm, 1, true)
		f.c.AccessEnd(f.p, f.vm, 1, true, false)
		f.as.HandleFault(f.p, 100, false) // outside the state frames
		digest = f.c.VMDone(f.microVM())
	}, false)
	if len(got) != 0 {
		t.Fatalf("violations: %q", got)
	}
	// FNV-1a over (pfn, tag) little-endian for frames 0-15, with tags
	// 500+pfn except evolveTag(0, 1), fileTag(2) and
	// evolveTag(fileTag(4), 4).
	const want = 0xb7bd8ed1b3ab6309
	if digest != want {
		t.Errorf("digest = %#x, want %#x", digest, uint64(want))
	}
}
