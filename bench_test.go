// Benchmarks of the observability layer's cost on one cell. Wall-clock
// per experiment is printed by snapbpf-bench itself, and the
// end-to-end ledger over both clocks is the bench/ module.
package snapbpf

import "testing"

// runObsCell runs one json/SnapBPF cell per iteration under the given
// observability config. BenchmarkObsDisabled is the baseline the
// observability cost contract is measured against (compare with
// BenchmarkObsMetrics / BenchmarkObsFull, and see internal/obs's
// zero-allocation test for the per-event guarantee; the engine-level
// hot paths are benchmarked in internal/sim and internal/ebpf).
func runObsCell(b *testing.B, cfg *ObsConfig) {
	b.Helper()
	fn, err := FunctionByName("json")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(fn, SchemeSnapBPF, RunConfig{N: 1, Obs: cfg})
		if err != nil {
			b.Fatal(err)
		}
		if cfg.Enabled() == (res.Obs == nil) {
			b.Fatal("observability report does not match config")
		}
	}
}

// BenchmarkObsDisabled is the no-observability baseline cell.
func BenchmarkObsDisabled(b *testing.B) { runObsCell(b, nil) }

// BenchmarkObsMetrics runs the same cell with metrics recording on.
func BenchmarkObsMetrics(b *testing.B) { runObsCell(b, &ObsConfig{Metrics: true}) }

// BenchmarkObsFull runs the same cell with tracing and metrics on.
func BenchmarkObsFull(b *testing.B) { runObsCell(b, &ObsConfig{Trace: true, Metrics: true}) }
