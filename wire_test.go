package patch

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"patch/internal/stats"
)

// TestConfigJSONGolden pins the HTTP API's Config encoding: explicit
// snake_case field names, protocols and variants by paper name. A
// renamed Go identifier must not silently rename a wire field — this
// golden fails instead.
func TestConfigJSONGolden(t *testing.T) {
	cfg := Config{
		Protocol: PATCH, Variant: VariantAll,
		Cores: 64, Workload: "oltp", OpsPerCore: 600, WarmupOps: 1500,
		Seed: 7, BandwidthBytesPerKiloCycle: 2000, DirectoryCoarseness: 4,
		TenureTimeoutFactor: 2,
	}
	const want = `{"protocol":"PATCH","variant":"PATCH-All","cores":64,"workload":"oltp","ops_per_core":600,"warmup_ops":1500,"seed":7,"bandwidth_bytes_per_kilocycle":2000,"directory_coarseness":4,"tenure_timeout_factor":2}`
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("Config JSON drifted:\n got %s\nwant %s", b, want)
	}
	var back Config
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, cfg)
	}
}

// TestMatrixJSONGolden pins the serialized Matrix — the POST /jobs
// request body — including a named filter standing in for the Filter
// function field.
func TestMatrixJSONGolden(t *testing.T) {
	m := Matrix{
		Base:       Config{Cores: 16, OpsPerCore: 100, Seed: 1, SkipChecks: true},
		Workloads:  []string{"micro", "oltp"},
		Protocols:  []ProtoVariant{{Protocol: Directory}, {Protocol: PATCH, Variant: VariantAll}},
		Seeds:      2,
		FilterName: FilterCoarsenessWithinCores,
	}
	// json.Marshal HTML-escapes "<" as \u003c; the decoded value is
	// still the plain filter name.
	const want = `{"base":{"protocol":"Directory","cores":16,"ops_per_core":100,"seed":1,"skip_checks":true},"protocols":[{"protocol":"Directory"},{"protocol":"PATCH","variant":"PATCH-All"}],"workloads":["micro","oltp"],"seeds":2,"filter":"coarseness\u003c=cores"}`
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("Matrix JSON drifted:\n got %s\nwant %s", b, want)
	}
	var back Matrix
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != m.NumCells() || back.NumReplicas() != m.NumReplicas() {
		t.Errorf("deserialized matrix expands to %d cells/%d replicas, want %d/%d",
			back.NumCells(), back.NumReplicas(), m.NumCells(), m.NumReplicas())
	}
}

// TestProgressAndCellResultJSONGolden pins the streaming-progress and
// result-download record shapes.
func TestProgressAndCellResultJSONGolden(t *testing.T) {
	p := Progress{Done: 3, Total: 8, Cell: 1, Cells: 2, CellDone: 1, CellTotal: 4, Label: "PATCH-All", Seed: 12}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const wantP = `{"done":3,"total":8,"cell":1,"cells":2,"cell_done":1,"cell_total":4,"label":"PATCH-All","seed":12}`
	if string(b) != wantP {
		t.Errorf("Progress JSON drifted:\n got %s\nwant %s", b, wantP)
	}

	cr := CellResult{
		Index:  2,
		Label:  "TokenB",
		Config: Config{Protocol: TokenB, Cores: 8, Workload: "micro"},
		Summary: &Summary{
			Runtime:      stats.Summary{N: 2, Mean: 100, StdDev: 1, CI95: 9},
			BytesPerMiss: stats.Summary{N: 2, Mean: 50},
			Results: []*Result{
				{Cycles: 99, Misses: 10, BytesPerMiss: 49, AvgMissLatency: 12.5},
				{Cycles: 101, Misses: 11, BytesPerMiss: 51, AvgMissLatency: 13.5},
			},
		},
	}
	b, err = json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	const wantC = `{"index":2,"label":"TokenB","config":{"protocol":"TokenB","cores":8,"workload":"micro"},"summary":{"runtime":{"n":2,"mean":100,"stddev":1,"ci95":9},"bytes_per_miss":{"n":2,"mean":50},"results":[{"cycles":99,"misses":10,"bytes_per_miss":49,"avg_miss_latency":12.5},{"cycles":101,"misses":11,"bytes_per_miss":51,"avg_miss_latency":13.5}]}}`
	if string(b) != wantC {
		t.Errorf("CellResult JSON drifted:\n got %s\nwant %s", b, wantC)
	}
	var back CellResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cr) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", back, cr)
	}
}

// TestProtocolVariantJSONForms covers the tolerant decode side:
// case-insensitive names and legacy integers both parse; junk errors.
func TestProtocolVariantJSONForms(t *testing.T) {
	var c Config
	for _, src := range []string{
		`{"protocol":"tokenb"}`,
		`{"protocol":2}`,
	} {
		if err := json.Unmarshal([]byte(src), &c); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if c.Protocol != TokenB {
			t.Errorf("%s decoded to %v, want TokenB", src, c.Protocol)
		}
	}
	for _, src := range []string{
		`{"protocol":"mesi"}`,
		`{"protocol":9}`,
		`{"protocol":"patch","variant":"PATCH-Everything"}`,
		`{"protocol":"patch","variant":99}`,
	} {
		if err := json.Unmarshal([]byte(src), &c); err == nil {
			t.Errorf("%s decoded without error", src)
		}
	}
	var v Variant
	if err := json.Unmarshal([]byte(`"patch-owner"`), &v); err != nil || v != VariantOwner {
		t.Errorf("case-insensitive variant decode: %v, %v", v, err)
	}
}

// TestMatrixNamedTransformErrors: unknown names and function/name
// conflicts surface as typed errors from expansion.
func TestMatrixNamedTransformErrors(t *testing.T) {
	base := Config{Cores: 8, Workload: "micro", OpsPerCore: 10, SkipChecks: true}
	if _, err := (Matrix{Base: base, AdjustName: "no-such-adjust"}).Plan(); !errors.Is(err, ErrUnknownAdjust) {
		t.Errorf("unknown adjust: %v", err)
	}
	if _, err := (Matrix{Base: base, FilterName: "no-such-filter"}).Plan(); !errors.Is(err, ErrUnknownFilter) {
		t.Errorf("unknown filter: %v", err)
	}
	m := Matrix{Base: base, FilterName: FilterCoarsenessWithinCores, Filter: func(Config) bool { return true }}
	if _, err := m.Plan(); !errors.Is(err, ErrTransformConflict) {
		t.Errorf("filter conflict: %v", err)
	}
	m = Matrix{Base: base, AdjustName: "x", Adjust: func(c Config) Config { return c }}
	if _, err := m.Plan(); !errors.Is(err, ErrTransformConflict) {
		t.Errorf("adjust conflict: %v", err)
	}
}

// TestRegisteredTransformsApply: a named adjust/filter pair drives
// expansion exactly like the function fields would.
func TestRegisteredTransformsApply(t *testing.T) {
	RegisterAdjust("test-halve-ops", func(c Config) Config { c.OpsPerCore /= 2; return c })
	RegisterFilter("test-micro-only", func(c Config) bool { return c.Workload == "micro" })
	m := Matrix{
		Base:       Config{Cores: 8, Workload: "micro", OpsPerCore: 100, SkipChecks: true},
		Workloads:  []string{"micro", "oltp"},
		AdjustName: "test-halve-ops",
		FilterName: "test-micro-only",
	}
	rp, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.p.cells) != 1 {
		t.Fatalf("filter kept %d cells, want 1", len(rp.p.cells))
	}
	if cfg := rp.p.cells[0].cfg; cfg.Workload != "micro" || cfg.OpsPerCore != 50 {
		t.Errorf("adjusted cell = %+v", cfg)
	}
}
