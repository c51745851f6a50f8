package pagecache

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"snapbpf/internal/faults"
	"snapbpf/internal/sim"
)

// TestRelayRetriesInjectedErrors drives demand faults and readahead
// against a device that fails every first, second and third attempt,
// on a local inode (completions relayed by callbacks) and on a staged
// one (submission in an "io-complete" process). Every failed
// submission is re-issued exactly once, every page comes uptodate, and
// the fault report and finish time are pinned: moving the relay off
// processes must not move a simulated event.
func TestRelayRetriesInjectedErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stager Stager
		want   faults.Report
		end    sim.Time
	}{
		// IOErrors counts failed requests; a read split into several
		// requests fails as one submission and is retried once.
		{"unstaged", nil, faults.Report{IOErrors: 44, ShortReads: 23, Retries: 27}, 13_280_837},
		{"staged", &recordingStager{delay: time.Millisecond}, faults.Report{IOErrors: 44, ShortReads: 23, Retries: 27}, 21_280_837},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, c, _ := newTestCache(8)
			in := faults.NewInjector(faults.Plan{Seed: 3, ReadErrorRate: 1.0, ShortReadRate: 0.5})
			c.Device().SetFaults(in)
			failed := &failedIOs{}
			c.Device().AddObserver(failed)
			ino := c.NewInode("snap", 200)
			if tc.stager != nil {
				ino.SetStager(tc.stager)
			}
			ino.ReadaheadAsync(100, 100)
			eng.Go("reader", func(p *sim.Proc) { ino.BufferedRead(p, 0, 64) })
			end := eng.Run()
			if got := ino.ResidentPages(); got != 164 {
				t.Fatalf("resident pages = %d, want 164", got)
			}
			rep := in.Report()
			if rep.Retries != failed.n {
				t.Fatalf("retries %d != failed submissions %d", rep.Retries, failed.n)
			}
			if rep != tc.want || end != tc.end {
				t.Fatalf("report %+v at %v, want %+v at %v", rep, end, tc.want, tc.end)
			}
		})
	}
}

// failedIOs counts submissions that completed with an error.
type failedIOs struct{ n int64 }

func (f *failedIOs) IOSubmitted(int64, int64, int64, bool, int, int)            {}
func (f *failedIOs) RequestServiced(int64, int64, int, int, faults.ReadOutcome) {}
func (f *failedIOs) RequestCompleted(int)                                       {}
func (f *failedIOs) IOCompleted(_ int64, failed bool) {
	if failed {
		f.n++
	}
}

// TestReadaheadStartsNoGoroutines: an unstaged inode's reads complete
// through engine callbacks, so readahead in flight holds no goroutine.
func TestReadaheadStartsNoGoroutines(t *testing.T) {
	eng, c, _ := newTestCache(0)
	ino := c.NewInode("snap", 1024)
	for j := int64(0); j < 1024; j += 16 {
		ino.ReadaheadAsync(j, 8) // 64 separate runs, one read each
	}
	before := runtime.NumGoroutine()
	eng.RunUntil(0) // every relay has registered on its read
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines with reads in flight: %d, want %d", got, before)
	}
	eng.Run()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines after Run: %d, want %d", got, before)
	}
	if got := ino.ResidentPages(); got != 512 {
		t.Fatalf("resident pages = %d, want 512", got)
	}
}

// removalRecorder logs PageRemoved calls; the other hooks are no-ops.
type removalRecorder struct{ removed []int64 }

func (r *removalRecorder) PageInserted(*Inode, int64, bool)            {}
func (r *removalRecorder) PageEvicted(*Inode, int64)                   {}
func (r *removalRecorder) PageRemoved(_ *Inode, idx int64)             { r.removed = append(r.removed, idx) }
func (r *removalRecorder) ReadaheadIssued(*Inode, int64, int64, int64) {}

// TestPageTableEdges covers the chunked page table at its edges: a file
// whose size is not a multiple of a chunk, indices outside the file,
// and index-order walks across chunks.
func TestPageTableEdges(t *testing.T) {
	eng, c, _ := newTestCache(0)
	rec := &removalRecorder{}
	c.AddObserver(rec)
	const n = 100 // one full chunk and a partial one
	ino := c.NewInode("f", n)
	for _, idx := range []int64{99, 70, 5, 64, 63, 0} {
		ino.ReadaheadAsync(idx, 1)
	}
	eng.Go("f", func(p *sim.Proc) { ino.FaultPageUnpinned(p, n-1) })
	eng.Run()
	for _, idx := range []int64{-1, n, n + 64, -65} {
		if ino.Present(idx) || ino.Resident(idx) || ino.MapCount(idx) != 0 {
			t.Errorf("page %d outside the file reported present", idx)
		}
		ino.MapPage(idx) // no-op, must not panic
		ino.UnmapPage(idx)
	}
	if !ino.Resident(n - 1) {
		t.Fatal("last page not resident")
	}
	want := []int64{0, 5, 63, 64, 70, 99}
	var walked []int64
	ino.ForEachPage(func(idx int64, uptodate bool, _ int) {
		if !uptodate {
			t.Errorf("page %d not uptodate", idx)
		}
		walked = append(walked, idx)
	})
	if fmt.Sprint(walked) != fmt.Sprint(want) {
		t.Fatalf("ForEachPage order %v, want %v", walked, want)
	}
	if got := ino.ResidentPages(); got != int64(len(want)) {
		t.Fatalf("ResidentPages = %d, want %d", got, len(want))
	}
	c.DropCaches()
	if fmt.Sprint(rec.removed) != fmt.Sprint(want) {
		t.Fatalf("DropCaches removed %v, want %v", rec.removed, want)
	}
	if ino.Present(0) || c.NrCachedPages() != 0 {
		t.Fatal("pages survived DropCaches")
	}
	// A dropped slot takes a new page again.
	eng.Go("f", func(p *sim.Proc) { ino.FaultPageUnpinned(p, 64) })
	eng.Run()
	if !ino.Resident(64) || ino.ResidentPages() != 1 {
		t.Fatal("refault after DropCaches did not repopulate exactly one page")
	}
}
