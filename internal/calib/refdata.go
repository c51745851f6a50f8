package calib

// RefRow is one reference row: the row key (function or scheme name,
// matching column 0 of the regenerated table) and one value per
// reference column.
type RefRow struct {
	Key  string
	Vals []float64
}

// RefFigure is the reference data and tolerance band for one figure.
type RefFigure struct {
	// ID matches experiments.Table.ID ("fig3a", "table1", ...).
	ID string
	// MAPETol is the maximum acceptable MAPE for the figure.
	MAPETol float64
	// PearsonMin is the minimum acceptable Pearson r; ignored when the
	// paired series are degenerate (see FigureFitness.PearsonDegenerate).
	PearsonMin float64
	// Columns names the compared columns, matching the regenerated
	// table's header exactly.
	Columns []string
	Rows    []RefRow
}

// References returns the reference dataset for the SnapBPF
// reproduction (HotStorage '25): the paper's published numbers for the
// figures this repo regenerates. Each call returns a fresh copy.
// TestReferencesWellFormed checks its structure: unique figure IDs,
// column names and row keys, one finite value per column, tolerances
// set.
//
// Provenance. The paper publishes fig3a/fig4 as bar charts without a
// numeric appendix, so the reference values below are read off the
// plots at 0.05 precision (the finest a reader can resolve against the
// printed gridlines). Table 1 is qualitative and transcribes exactly
// (Yes=1, No=0). The overheads figure gives only the "~1-2 ms eBPF
// manager load" band, so its reference pins this repo's reviewed
// results/overheads.csv values as the drift anchor.
//
// Tolerance policy. Bands are set 3-6x above the fit measured at
// recording time, so noise-level drift passes while a single perturbed
// cost-model constant (see TestSabotageAlarm) blows far through them:
//
//	fig3a measured MAPE 0.013, Pearson 0.9987 -> band 0.15 / 0.95
//	fig4  measured MAPE 0.025, Pearson 0.9974 -> band 0.15 / 0.95
//
// Columns that are 1.00 by construction (fig3a SnapBPF, fig4 Linux-RA
// normalisation bases) carry no information and are excluded.
func References() []RefFigure {
	return []RefFigure{
		// Table 1: mechanism properties per scheme. A flipped Yes/No
		// fails the band either way (TestTable1SingleFlip): Yes->No
		// raises MAPE to >= 1/6, No->Yes drops Pearson to <= sqrt(5/7).
		{
			ID: "table1", MAPETol: 0.10, PearsonMin: 0.90,
			Columns: []string{"On-disk WS serialization", "In-memory WS dedup", "Stateless VM alloc filtering"},
			Rows: []RefRow{
				{"REAP", []float64{1, 0, 0}},
				{"Faast", []float64{1, 0, 0}},
				{"FaaSnap", []float64{1, 1, 0}},
				{"SnapBPF", []float64{0, 1, 1}},
			},
		},
		// Fig 3a: cold-start E2E normalised to SnapBPF (= 1.00), read
		// off the plot at 0.05 precision.
		{
			ID: "fig3a", MAPETol: 0.15, PearsonMin: 0.95,
			Columns: []string{"REAP", "FaaSnap"},
			Rows: []RefRow{
				{"chameleon", []float64{1.05, 1.10}},
				{"cnn", []float64{1.30, 1.25}},
				{"dd", []float64{1.95, 0.90}},
				{"float", []float64{0.90, 0.95}},
				{"image", []float64{2.15, 0.95}},
				{"json", []float64{1.00, 1.10}},
				{"linpack", []float64{1.05, 1.00}},
				{"lr", []float64{1.10, 1.05}},
				{"matmul", []float64{1.15, 1.00}},
				{"pyaes", []float64{0.85, 0.90}},
				{"rnn", []float64{1.25, 1.30}},
				{"video", []float64{1.50, 0.95}},
				{"html", []float64{1.00, 1.05}},
				{"bfs", []float64{1.50, 1.30}},
				{"bert", []float64{1.50, 1.25}},
			},
		},
		// Fig 4: guest prepare time normalised to Linux-RA (= 1.00),
		// read off the plot at 0.05 precision.
		{
			ID: "fig4", MAPETol: 0.15, PearsonMin: 0.95,
			Columns: []string{"PVPTEs", "SnapBPF"},
			Rows: []RefRow{
				{"chameleon", []float64{0.85, 0.55}},
				{"cnn", []float64{0.95, 0.50}},
				{"dd", []float64{0.40, 0.35}},
				{"float", []float64{0.95, 0.70}},
				{"image", []float64{0.40, 0.30}},
				{"json", []float64{0.90, 0.55}},
				{"linpack", []float64{0.70, 0.55}},
				{"lr", []float64{0.85, 0.55}},
				{"matmul", []float64{0.65, 0.50}},
				{"pyaes", []float64{0.90, 0.70}},
				{"rnn", []float64{0.95, 0.50}},
				{"video", []float64{0.55, 0.40}},
				{"html", []float64{0.90, 0.60}},
				{"bfs", []float64{0.95, 0.45}},
				{"bert", []float64{0.95, 0.50}},
			},
		},
		// Overheads: eBPF manager offset-load latency in ms. The paper
		// states only that load stays in the ~1-2 ms band for the
		// largest working sets; the per-function reference pins the
		// reviewed repro values from results/overheads.csv so any
		// cost-model drift trips the alarm.
		// TestOverheadsReferencesMatchCommittedCSV keeps the two equal.
		{
			ID: "overheads", MAPETol: 0.10, PearsonMin: 0.98,
			Columns: []string{"Load (ms)"},
			Rows: []RefRow{
				{"chameleon", []float64{0.218}},
				{"cnn", []float64{0.650}},
				{"dd", []float64{0.099}},
				{"float", []float64{0.074}},
				{"image", []float64{0.218}},
				{"json", []float64{0.146}},
				{"linpack", []float64{0.153}},
				{"lr", []float64{0.233}},
				{"matmul", []float64{0.164}},
				{"pyaes", []float64{0.051}},
				{"rnn", []float64{0.610}},
				{"video", []float64{0.306}},
				{"html", []float64{0.103}},
				{"bfs", []float64{2.108}},
				{"bert", []float64{4.034}},
			},
		},
	}
}
