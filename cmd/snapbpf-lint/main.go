// Command snapbpf-lint runs the project's go/analysis suite
// (internal/analysis): detnondet, clusterepoch, maporder, simtime,
// unitsafety and allowcheck — the compile-time halves of the
// determinism and observer contracts that internal/check verifies at
// runtime. See DESIGN.md §9.
//
// Two modes, one binary:
//
//	snapbpf-lint ./...                # standalone: re-execs `go vet -vettool=<self> ./...`
//	go vet -vettool=$(which snapbpf-lint) ./...   # driven by the build system
//
// The standalone mode exists because the full multichecker driver
// needs go/packages (unavailable offline); `go vet` already knows how
// to enumerate, compile and cache per-package analysis units, and the
// unitchecker protocol (-V=full handshake, then one *.cfg per unit)
// lets this binary serve as its analysis tool.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	snapanalysis "snapbpf/internal/analysis"
)

func main() {
	if unitcheckerInvocation(os.Args[1:]) {
		unitchecker.Main(snapanalysis.All()...) // never returns
	}

	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapbpf-lint: cannot locate own executable: %v\n", err)
		os.Exit(2)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "snapbpf-lint: %v\n", err)
		os.Exit(2)
	}
}

// unitcheckerInvocation reports whether the build tool (go vet) is
// driving this process under the unitchecker protocol: a -V=full
// version handshake, a *.cfg compilation-unit file, or unitchecker's
// own flags (-flags, analyzer toggles).
func unitcheckerInvocation(args []string) bool {
	for _, a := range args {
		if a == "-V=full" || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
