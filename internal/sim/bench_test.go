package sim

import "testing"

// Microbenchmarks for the simulation kernel: event dispatch and
// process context-switch rates bound how large a workload the
// experiments can replay.

func BenchmarkScheduleDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i), func() { n++ })
	}
	e.Run()
	if n != b.N {
		b.Fatal("lost events")
	}
}

func BenchmarkProcSleepSwitch(b *testing.B) {
	e := NewEngine()
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

func BenchmarkWaiterFireWake(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		w := e.NewWaiter()
		e.Go("w", func(p *Proc) { p.Wait(w) })
		e.Schedule(1, w.Fire)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcPingPong alternates two processes, so every resume is a
// hand-off from one process goroutine to the other.
func BenchmarkProcPingPong(b *testing.B) {
	e := NewEngine()
	for k := 0; k < 2; k++ {
		e.GoAfter(Duration(k), "p", func(p *Proc) {
			for i := 0; i < (b.N+1)/2; i++ {
				p.Sleep(2)
			}
		})
	}
	b.ResetTimer()
	e.Run()
}
