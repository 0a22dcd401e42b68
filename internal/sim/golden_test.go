package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the simulator golden instead of comparing against it:
//
//	go test ./internal/sim -run TestGoldenResults -update
var update = flag.Bool("update", false, "rewrite the simulator result golden")

// goldenSeed is the plan seed of every golden cell.
const goldenSeed = 91

// goldenJitterPanels add multi-batch epochs, staging-window eviction and
// per-batch PFS jitter to the fig8a pattern cells: uniform access at test
// scale with PFSJitter σ = 0.5.
var goldenJitterPanels = []string{"fig8b", "fig8e"}

// goldenResult is a Result with every float spelled as an exact hex float
// (strconv 'x' format), so the golden pins outputs bit for bit.
type goldenResult struct {
	Panel                string            `json:"panel"`
	Pattern              string            `json:"pattern"`
	PFSJitter            string            `json:"pfs_jitter"`
	Policy               string            `json:"policy"`
	System               string            `json:"system"`
	Failed               bool              `json:"failed"`
	FailReason           string            `json:"fail_reason,omitempty"`
	ExecSeconds          string            `json:"exec_s"`
	SetupSeconds         string            `json:"setup_s"`
	StallSeconds         string            `json:"stall_s"`
	StagingWriteSeconds  string            `json:"staging_write_s"`
	Coverage             string            `json:"coverage"`
	RemoteFalsePositives int64             `json:"remote_false_positives"`
	LocSeconds           map[string]string `json:"loc_s"`
	LocCount             map[string]int64  `json:"loc_count"`
	EpochSeconds         string            `json:"epoch_s"`
	BatchSeconds         string            `json:"batch_s"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// hexFloats joins a series into one space-separated string, keeping the
// golden one line per series.
func hexFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = hexFloat(v)
	}
	return strings.Join(parts, " ")
}

func toGolden(panel string, cfg Config, r *Result) goldenResult {
	g := goldenResult{
		Panel: panel, Pattern: cfg.Access, PFSJitter: hexFloat(cfg.PFSJitter),
		Policy: r.Policy, System: r.System,
		Failed: r.Failed, FailReason: r.FailReason,
		ExecSeconds:          hexFloat(r.ExecSeconds),
		SetupSeconds:         hexFloat(r.SetupSeconds),
		StallSeconds:         hexFloat(r.StallSeconds),
		StagingWriteSeconds:  hexFloat(r.StagingWriteSeconds),
		Coverage:             hexFloat(r.Coverage),
		RemoteFalsePositives: r.RemoteFalsePositives,
		LocSeconds:           map[string]string{},
		LocCount:             map[string]int64{},
		EpochSeconds:         hexFloats(r.EpochSeconds),
		BatchSeconds:         hexFloats(r.BatchSeconds),
	}
	for l, v := range r.LocSeconds {
		g.LocSeconds[l.String()] = hexFloat(v)
	}
	for l, v := range r.LocCount {
		g.LocCount[l.String()] = v
	}
	return g
}

// TestGoldenResults pins the full fault-free Result of every policy (plus
// the NoRemote ablation) under every access pattern on fig8a at test scale,
// and under jittered uniform access on goldenJitterPanels, against a
// checked-in golden. The simulation loop may be restructured freely as long
// as this file stays byte-for-byte unchanged.
func TestGoldenResults(t *testing.T) {
	pols := append(AllPolicies(), NewNoPFSVariant(NoPFSVariant{NoRemote: true}))
	var got []goldenResult
	record := func(panel string, cfg Config) {
		for _, pol := range pols {
			r, err := Run(cfg, pol)
			if err != nil {
				t.Fatalf("%s on %s under %q: %v", pol.Name(), panel, cfg.Access, err)
			}
			got = append(got, toGolden(panel, cfg, r))
		}
	}
	for _, spec := range patternSpecs {
		record("fig8a", patternConfig(t, spec, goldenSeed))
	}
	for _, id := range goldenJitterPanels {
		s, err := ScenarioByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Config(testScale, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.PFSJitter = 0.5
		record(id, cfg)
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	path := filepath.Join("testdata", "golden_results.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(enc, want) {
		var wantRes []goldenResult
		if err := json.Unmarshal(want, &wantRes); err != nil || len(wantRes) != len(got) {
			t.Fatalf("golden %s does not match (%d results now); regenerate with -update only for an intended model change", path, len(got))
		}
		for i := range got {
			a, _ := json.Marshal(got[i])
			b, _ := json.Marshal(wantRes[i])
			if !bytes.Equal(a, b) {
				t.Errorf("%s on %s under %q differs from golden:\n got %s\nwant %s", got[i].Policy, got[i].Panel, got[i].Pattern, a, b)
			}
		}
		if !t.Failed() {
			t.Errorf("golden %s differs in layout only; regenerate with -update", path)
		}
	}
}
