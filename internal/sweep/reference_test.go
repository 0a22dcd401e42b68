package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// Reference report writers: whole-report implementations of the JSON, CSV
// and text formats, kept as test oracles. They assemble each document from
// Report.Aggregate's group-by rather than from the ordered cell stream, so
// the byte-identity property tests compare the streaming aggregators (which
// WriteJSON, WriteCSV and WriteText replay through) with an independent
// implementation instead of with themselves.

// referenceJSONReport is the stable on-wire shape: the raw cells plus the
// aggregated summaries, so consumers get both without re-deriving either.
type referenceJSONReport struct {
	*Report
	Summaries []Summary `json:"summaries"`
}

// referenceWriteJSON emits the full report (cells + aggregated summaries)
// as indented JSON.
func referenceWriteJSON(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(referenceJSONReport{Report: rep, Summaries: rep.Aggregate()})
}

// referenceWriteCSV emits one row per aggregated (scenario, policy,
// profile, pattern) summary.
func referenceWriteCSV(w io.Writer, rep *Report) error {
	cw := csv.NewWriter(w)
	hasProfiles := len(rep.Profiles) > 0
	hasPatterns := len(rep.Patterns) > 0
	if err := cw.Write(csvHeader(hasProfiles, hasPatterns, rep.Metrics)); err != nil {
		return err
	}
	for _, s := range rep.Aggregate() {
		if err := cw.Write(csvRow(rep.Grid, hasProfiles, hasPatterns, rep.Metrics, s)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// referenceWriteText renders the report in the repo's bar-chart style: one
// block per scenario, one row per policy, one column per visible schema
// metric, with a ±CI column on the first metric when the grid ran more than
// one replica.
func referenceWriteText(w io.Writer, rep *Report) error {
	summaries := rep.Aggregate()
	multi := rep.Replicas > 1
	visible := visibleMetrics(rep.Metrics)

	var scenarios []string
	seen := map[string]bool{}
	for _, s := range summaries {
		if !seen[s.Scenario] {
			seen[s.Scenario] = true
			scenarios = append(scenarios, s.Scenario)
		}
	}
	for _, sc := range scenarios {
		if err := textBlockHeader(w, sc, rep.Labels[sc], visible, multi); err != nil {
			return err
		}
		for _, s := range summaries {
			if s.Scenario != sc {
				continue
			}
			if err := textRow(w, s, visible, multi); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
