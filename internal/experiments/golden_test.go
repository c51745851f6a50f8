package experiments

import (
	"testing"

	"snapbpf/internal/workload"
)

// Golden-output regression tests: the simulation is deterministic, so
// these experiments' CSV output is pinned byte for byte. A diff here
// means a change shifted the paper's reproduced results — either a bug,
// or an intentional model change whose new numbers must be reviewed
// and re-pinned.

func goldenFunctions(t *testing.T) []workload.Function {
	t.Helper()
	var fns []workload.Function
	for _, f := range workload.Suite() {
		if f.Name == "json" || f.Name == "image" {
			fns = append(fns, f)
		}
	}
	if len(fns) != 2 {
		t.Fatalf("expected json+image in suite, got %d functions", len(fns))
	}
	return fns
}

const goldenTable1CSV = `Scheme,Mechanism,On-disk WS serialization,In-memory WS dedup,Stateless VM alloc filtering
REAP,Userfaultfd (User-space),Yes,No,No
Faast,Userfaultfd (User-space),Yes,No,No
FaaSnap,mincore / mmap (User-space),Yes,Yes,No
SnapBPF,eBPF (Kernel-space),No,Yes,Yes
`

const goldenFig3aCSV = `Function,REAP,FaaSnap,SnapBPF,SnapBPF (s)
image,2.16,0.96,1.00,0.343
json,0.99,1.08,1.00,0.116
`

const goldenFig4CSV = `Function,Linux-RA,PVPTEs,SnapBPF
image,1.00,0.42,0.32
json,1.00,0.90,0.57
`

const goldenOverheadsCSV = `Function,WS groups,Load (ms),E2E (s),Load/E2E
image,240,0.218,0.343,0.06%
json,160,0.146,0.116,0.13%
`

func TestGoldenTable1(t *testing.T) {
	tbl, err := Table1(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenTable1CSV {
		t.Errorf("table1 CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenTable1CSV)
	}
}

func TestGoldenFig3a(t *testing.T) {
	tbl, err := Fig3a(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenFig3aCSV {
		t.Errorf("fig3a CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenFig3aCSV)
	}
}

func TestGoldenFig4(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	tbl, err := Fig4(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenFig4CSV {
		t.Errorf("fig4 CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenFig4CSV)
	}
}

// The remaining pins run json only: fig3b regenerates five schemes per
// function and takes minutes per extra function on a small runner, and
// the json row alone already pins every scheme column byte for byte.
func goldenJSONOnly(t *testing.T) []workload.Function {
	t.Helper()
	fn, err := workload.ByName("json")
	if err != nil {
		t.Fatal(err)
	}
	return []workload.Function{fn}
}

const goldenFig3bCSV = `Function,Linux-NoRA,Linux-RA,REAP,SnapBPF,REAP/SnapBPF
json,0.983,0.204,0.639,0.116,5.53x
`

const goldenFig3cCSV = `Function,Linux-NoRA,Linux-RA,REAP,SnapBPF,REAP/SnapBPF
json,0.14,0.15,0.33,0.14,2.4x
`

const goldenAblationRAWindowCSV = `Function/window,E2E (s),device MiB,requests
json/w=0,0.983,33.5,8576
json/w=8,0.277,35.0,1120
json/w=32,0.204,37.5,300
json/w=128,0.204,47.5,95
json/w=512,0.270,84.3,171
`

// goldenPin runs an experiment serially and pins its CSV bytes, then
// reruns it on a worker pool and asserts the parallel bytes are equal —
// the schedule-independence half of the determinism contract.
func goldenPin(t *testing.T, name string, run func(Options) (*Table, error), want string) {
	t.Helper()
	fns := goldenJSONOnly(t)
	serial, err := run(Options{Functions: fns, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := serial.CSV(); got != want {
		t.Errorf("%s CSV drifted:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
	parallel, err := run(Options{Functions: fns, Parallel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := parallel.CSV(); got != serial.CSV() {
		t.Errorf("%s parallel CSV differs from serial:\n--- parallel ---\n%s--- serial ---\n%s",
			name, got, serial.CSV())
	}
}

func TestGoldenFig3b(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPin(t, "fig3b", Fig3b, goldenFig3bCSV)
}

func TestGoldenFig3c(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPin(t, "fig3c", Fig3c, goldenFig3cCSV)
}

func TestGoldenAblationRAWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	goldenPin(t, "ablation-rawindow", AblationRAWindow, goldenAblationRAWindowCSV)
}

func TestGoldenOverheads(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	tbl, err := Overheads(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenOverheadsCSV {
		t.Errorf("overheads CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenOverheadsCSV)
	}
}

// The chaos and drift pins cover the two userfaultfd schemes' E2E,
// read retries and demand-paging fallbacks, which no other golden
// does byte for byte.
const goldenChaosCSV = `Function,Scheme,healthy,light,heavy,slowdown,inj,retry,fb
json,Linux-RA,0.204,0.254,0.895,4.39,150,25,0
json,REAP,0.639,1.215,10.562,16.53,11104,1806,3
json,Faast,0.500,0.922,8.150,16.31,8595,1365,3
json,FaaSnap,0.125,0.175,0.671,5.38,2285,371,3
json,SnapBPF,0.116,0.116,0.328,2.83,2158,351,2
`

const goldenAblationDriftCSV = `Function,REAP,REAP+drift,Faast,Faast+drift,SnapBPF,SnapBPF+drift
image,0.739,1.095,0.787,0.787,0.343,0.343
json,0.114,0.372,0.116,0.116,0.116,0.116
`

func TestGoldenChaos(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	tbl, err := Chaos(Options{Functions: goldenJSONOnly(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenChaosCSV {
		t.Errorf("chaos CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenChaosCSV)
	}
}

func TestGoldenAblationDrift(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-pinning is value-level; the non-race suite covers it")
	}
	tbl, err := AblationDrift(Options{Functions: goldenFunctions(t), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.CSV(); got != goldenAblationDriftCSV {
		t.Errorf("ablation-drift CSV drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenAblationDriftCSV)
	}
}
