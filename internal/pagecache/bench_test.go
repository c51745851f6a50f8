package pagecache

import (
	"testing"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/costmodel"
	"snapbpf/internal/kprobe"
	"snapbpf/internal/sim"
)

// Microbenchmarks for the page-cache hot paths the experiments stress:
// insertion (with and without an attached kprobe consumer), hit
// lookups and the full miss path.

// BenchmarkReadaheadInsert times one-page readahead end to end: the
// insert, the device submit and, in eng.Run, the completion relay.
func BenchmarkReadaheadInsert(b *testing.B) {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	c := New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	ino := c.NewInode("f", int64(b.N)+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ino.ReadaheadAsync(int64(i), 1)
	}
	eng.Run()
}

func BenchmarkFaultHit(b *testing.B) {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	c := New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	ino := c.NewInode("f", 1024)
	ino.ReadaheadAsync(0, 1024)
	eng.Run()
	eng.Go("hits", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ino.FaultPageUnpinned(p, int64(i%1024))
		}
	})
	eng.Run()
}

// BenchmarkFaultMiss demand-faults distinct pages with readahead off,
// so every iteration is an insert, a device submit, a completion relay
// and a wake of the faulting process.
func BenchmarkFaultMiss(b *testing.B) {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	c := New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	c.RAPages = 0
	ino := c.NewInode("f", int64(b.N))
	eng.Go("misses", func(p *sim.Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ino.FaultPageUnpinned(p, int64(i))
		}
	})
	eng.Run()
}

func BenchmarkMincore(b *testing.B) {
	eng := sim.NewEngine()
	dev := blockdev.New(eng, blockdev.MicronSATA5300())
	c := New(eng, dev, kprobe.NewRegistry(), costmodel.Default())
	ino := c.NewInode("f", 1<<16)
	ino.ReadaheadAsync(0, 1<<15)
	eng.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm := ino.Mincore(0, 1<<16)
		if len(bm) != 1<<16 {
			b.Fatal("bad bitmap")
		}
	}
}
