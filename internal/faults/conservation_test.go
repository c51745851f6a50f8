// Conservation property test: every treatment the injector reports
// must be observable exactly once in the storage stack, and vice
// versa. Lives in an external test package because it drives the real
// block device and page cache against the injector (internal/faults
// cannot import internal/blockdev without a cycle).
package faults_test

import (
	"testing"
	"time"

	"snapbpf/internal/blockdev"
	"snapbpf/internal/faults"
	"snapbpf/internal/sim"
	"snapbpf/internal/units"
)

// treatmentCounter implements blockdev.Observer, tallying the fault
// treatments the device actually applied.
type treatmentCounter struct {
	errs, spikes, stuck, short int64
	submitted, completed       int64
	failedIOs                  int64
}

func (c *treatmentCounter) IOSubmitted(id, off, length int64, sync bool, attempt, parts int) {
	c.submitted += int64(parts)
}

func (c *treatmentCounter) RequestServiced(off, length int64, attempt, inFlight int, out faults.ReadOutcome) {
	if out.Err {
		c.errs++
	}
	if out.ExtraMediaTime > 0 {
		c.spikes++
	}
	if out.HoldSlot > 0 {
		c.stuck++
	}
	if out.Short {
		c.short++
		c.submitted++ // requeued tail
	}
}

func (c *treatmentCounter) RequestCompleted(inFlight int) { c.completed++ }

func (c *treatmentCounter) IOCompleted(id int64, failed bool) {
	if failed {
		c.failedIOs++
	}
}

// TestReportMatchesAppliedTreatments drives a mix of sync and
// readahead reads — retrying failures the way the page cache's relay
// does — under several plans and seeds, and checks the injector's
// Report against the treatments the device observably applied.
func TestReportMatchesAppliedTreatments(t *testing.T) {
	plans := map[string]func(int64) faults.Plan{
		"light": faults.Light,
		"heavy": faults.Heavy,
		"mixed": func(seed int64) faults.Plan {
			return faults.Plan{
				Seed:          seed,
				ReadErrorRate: 0.2, LatencySpikeRate: 0.3, LatencySpike: 2 * time.Millisecond,
				StuckSlotRate: 0.15, StuckSlotDelay: 5 * time.Millisecond,
				ShortReadRate: 0.25,
			}
		},
	}
	for name, mk := range plans {
		for seed := int64(1); seed <= 3; seed++ {
			plan := mk(seed)
			inj := faults.NewInjector(plan)
			eng := sim.NewEngine()
			dev := blockdev.New(eng, blockdev.MicronSATA5300())
			dev.SetFaults(inj)
			ctr := &treatmentCounter{}
			dev.AddObserver(ctr)

			var retries int64
			for i := 0; i < 40; i++ {
				i := i
				// Each plans iteration builds and runs a private
				// engine to completion, so map order cannot leak
				// into any schedule or output.
				//lint:allow maporder independent engine per map entry
				eng.Go("io", func(p *sim.Proc) {
					// Sizes sweep 1..16 pages so the short-read
					// applicability gate (>= 2 pages) is exercised on
					// both sides; every third read is readahead-class.
					length := int64(1+i%16) * int64(units.PageSize)
					off := int64(i) * 64 * int64(units.PageSize)
					submit := dev.SubmitReadIO
					if i%3 == 0 {
						submit = dev.SubmitReadaheadIO
					}
					io := submit(off, length, 0)
					p.Wait(io.Done())
					for attempt := 1; io.Err() != nil && attempt < faults.MaxRetryAttempts; attempt++ {
						inj.CountRetry()
						retries++
						p.Sleep(faults.Backoff(attempt - 1))
						io = submit(off, length, attempt)
						p.Wait(io.Done())
					}
					if io.Err() != nil {
						t.Errorf("%s/seed%d: io %d still failing after %d attempts",
							name, seed, i, faults.MaxRetryAttempts)
					}
				})
			}
			eng.Run()

			rep := inj.Report()
			for _, c := range []struct {
				what              string
				reported, applied int64
			}{
				{"io-errors", rep.IOErrors, ctr.errs},
				{"latency-spikes", rep.LatencySpikes, ctr.spikes},
				{"stuck-slots", rep.StuckSlots, ctr.stuck},
				{"short-reads", rep.ShortReads, ctr.short},
				{"retries", rep.Retries, retries},
				{"retries-vs-failed-ios", rep.Retries, ctr.failedIOs},
			} {
				if c.reported != c.applied {
					t.Errorf("%s/seed%d: %s: report says %d, device applied %d",
						name, seed, c.what, c.reported, c.applied)
				}
			}
			if ctr.submitted != ctr.completed {
				t.Errorf("%s/seed%d: %d parts submitted, %d completed",
					name, seed, ctr.submitted, ctr.completed)
			}
			if rep.Injected() == 0 {
				t.Errorf("%s/seed%d: plan injected nothing; test exercises no faults", name, seed)
			}
		}
	}
}

// TestSchemeLevelDrawsAreCounted covers the two scheme-level fault
// classes: every true draw must appear in the report, and only true
// draws do.
func TestSchemeLevelDrawsAreCounted(t *testing.T) {
	plan := faults.Plan{Seed: 9, ArtifactCorruptionRate: 0.4, MapLoadFailureRate: 0.3}
	inj := faults.NewInjector(plan)
	var corrupt, mapFail int64
	for i := 0; i < 200; i++ {
		if inj.ArtifactCorrupt() {
			corrupt++
		}
		if inj.MapLoadFails() {
			mapFail++
		}
	}
	rep := inj.Report()
	if rep.ArtifactCorruptions != corrupt {
		t.Errorf("artifact corruptions: report %d, drawn %d", rep.ArtifactCorruptions, corrupt)
	}
	if rep.MapLoadFailures != mapFail {
		t.Errorf("map load failures: report %d, drawn %d", rep.MapLoadFailures, mapFail)
	}
	if corrupt == 0 || mapFail == 0 {
		t.Error("rates too low: draws never fired")
	}
}
