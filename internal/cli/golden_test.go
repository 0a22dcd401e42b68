package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the CLI output goldens instead of comparing against them:
//
//	go test ./internal/cli -run TestCLIGolden -update
var update = flag.Bool("update", false, "rewrite the CLI output golden files")

// TestCLIGolden pins the stdout bytes and exit code of representative sim
// and train invocations — generic text, JSON and CSV (with replicas and the
// chaos and access axes), the bespoke Fig. 9 matrix, and the bespoke Fig. 12
// and Fig. 16 tables — so every report output path is checked end to end at
// the command surface. Each golden starts with an "exit N" line followed by
// the command's stdout. Regenerate with -update.
func TestCLIGolden(t *testing.T) {
	cases := []struct {
		file string
		args []string
	}{
		{"sim_fig8a.txt", []string{"sim", "-scenario", "fig8a", "-scale", "0.005"}},
		{"sim_fig8a.json", []string{"sim", "-scenario", "fig8a", "-scale", "0.005", "-format", "json"}},
		{"sim_fig8a_axes.csv", []string{"sim", "-scenario", "fig8a", "-scale", "0.005", "-format", "csv",
			"-replicas", "2", "-chaos", "straggler", "-access", "zipf"}},
		{"sim_sweep.txt", []string{"sim", "-sweep", "-scale", "0.005"}},
		{"train_fig12.txt", []string{"train", "-fig", "12", "-scale", "0.02", "-gpus", "32"}},
		{"train_fig16.txt", []string{"train", "-fig", "16", "-scale", "0.02"}},
		{"train_fig10.csv", []string{"train", "-fig", "10", "-scale", "0.02", "-gpus", "32", "-format", "csv"}},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			code, stdout, stderr := runMain(tc.args...)
			got := []byte(fmt.Sprintf("exit %d\n%s", code, stdout))
			path := filepath.Join("testdata", "golden", tc.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("nopfs %q drifted from %s (stderr: %s)\n-- got --\n%s\n-- want --\n%s",
					tc.args, path, stderr, got, want)
			}
		})
	}
}
