package ebpf_test

import (
	"testing"

	"snapbpf/internal/core"
	"snapbpf/internal/ebpf"
)

// BenchmarkVerify times the load-path verification of the built-in
// SnapBPF programs: Load runs it once per capture and once per
// prefetch arm, so this is the verifier's cost per cold start.
func BenchmarkVerify(b *testing.B) {
	for _, bp := range core.BuiltinPrograms() {
		b.Run(bp.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ebpf.Verify(bp.Insns, bp.VM); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
