package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/prng"
	isim "repro/internal/sim"
)

// encodeInMemory runs the grid through Run and the reference whole-report
// writers (see reference_test.go).
func encodeInMemory(t *testing.T, r *Runner, g *Grid) (jsonB, csvB, textB []byte) {
	t.Helper()
	rep, err := r.Run(bg, g)
	if err != nil {
		t.Fatal(err)
	}
	var j, c, x bytes.Buffer
	if err := referenceWriteJSON(&j, rep); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteCSV(&c, rep); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteText(&x, rep); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), x.Bytes()
}

// encodeStreaming runs the grid through RunStream and the streaming
// aggregators, all three at once.
func encodeStreaming(t *testing.T, r *Runner, g *Grid) (jsonB, csvB, textB []byte) {
	t.Helper()
	var j, c, x bytes.Buffer
	err := r.RunStream(bg, g,
		NewJSONAggregator(&j), NewCSVAggregator(&c), NewTextAggregator(&x))
	if err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), x.Bytes()
}

// randomFuncGrid builds a randomized pure-function grid: random axis sizes,
// optionally a fault-profile axis, random metric schema with a hidden
// column, and cells that are deterministic hashes of their coordinates with
// occasional failures and notes sprinkled in.
func randomFuncGrid(rng *rand.Rand) *Grid {
	nScen := 1 + rng.Intn(3)
	nPol := 1 + rng.Intn(3)
	replicas := 1 + rng.Intn(3)

	var scens []ScenarioSpec
	for i := 0; i < nScen; i++ {
		s := ScenarioSpec{ID: fmt.Sprintf("row%c", 'A'+i)}
		if rng.Intn(2) == 0 {
			s.Label = fmt.Sprintf("row %d label", i)
		}
		scens = append(scens, s)
	}
	var pols []PolicySpec
	for i := 0; i < nPol; i++ {
		pols = append(pols, PolicySpec{Name: fmt.Sprintf("col%c", 'X'+i)})
	}
	var profs []ProfileSpec
	if rng.Intn(2) == 0 {
		// Chaos axis: a clean baseline column plus a parsed fault profile,
		// exactly as ChaosAxis builds for the CLIs.
		p, err := chaos.ParseProfile("straggler:0x2@1,tier:pfsx3")
		if err != nil {
			panic(err)
		}
		profs = ChaosProfiles(chaos.Profile{Name: "clean"}, p)
	}
	failScen := rng.Intn(nScen + 2) // may select no scenario at all
	failPol := rng.Intn(nPol + 2)

	return &Grid{
		Name:      fmt.Sprintf("rand-%d", rng.Intn(1000)),
		Scenarios: scens, Policies: pols, Profiles: profs,
		Replicas: replicas, BaseSeed: rng.Uint64(),
		Metrics: []Metric{
			{Name: "score", Label: "score", Unit: "s"},
			{Name: "aux", Hide: true},
		},
		Cell: func(si, pi, fi, ai int) CellFunc {
			return func(_ context.Context, seed uint64) (*Outcome, error) {
				if si == failScen && pi == failPol {
					return &Outcome{Failed: true, FailReason: "cannot run"}, nil
				}
				h := prng.NewSplitMix64(seed ^ uint64(si*1009+pi*31+fi)).Next()
				o := &Outcome{Values: map[string]float64{
					"score": float64(h%100000) / 1000,
					"aux":   float64(h % 17),
				}}
				if h%5 == 0 {
					o.Note = fmt.Sprintf("note %d", h%7)
				}
				return o, nil
			}
		},
	}
}

// TestStreamEncodersMatchWritersRandomized is the streaming property test:
// on randomized grids — axis sizes, chaos profile axis, replicas, failures,
// notes, and pool widths all drawn per trial — the streaming JSON, CSV and
// text aggregators must produce byte-identical output to the reference
// whole-report writers, and the hand-spliced JSON must be valid JSON.
func TestStreamEncodersMatchWritersRandomized(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		g := randomFuncGrid(rng)
		r := &Runner{Parallel: []int{1, 4, 8}[rng.Intn(3)]}
		wantJ, wantC, wantX := encodeInMemory(t, r, g)
		gotJ, gotC, gotX := encodeStreaming(t, r, g)
		if !json.Valid(gotJ) {
			t.Fatalf("trial %d (grid %s): streaming JSON is not valid JSON:\n%s", trial, g.Name, gotJ)
		}
		if !bytes.Equal(wantJ, gotJ) {
			t.Fatalf("trial %d (grid %s, parallel %d): streaming JSON differs\nwant:\n%s\ngot:\n%s",
				trial, g.Name, r.Parallel, wantJ, gotJ)
		}
		if !bytes.Equal(wantC, gotC) {
			t.Fatalf("trial %d: streaming CSV differs\nwant:\n%s\ngot:\n%s", trial, wantC, gotC)
		}
		if !bytes.Equal(wantX, gotX) {
			t.Fatalf("trial %d: streaming text differs\nwant:\n%s\ngot:\n%s", trial, wantX, gotX)
		}
	}
}

// TestStreamEncodersMatchWritersSimulator repeats the byte-identity check on
// a real simulator grid with a chaos axis: the default cell binding, failed
// cells (LBANN on fig8d), and fault profiles all flow through the streaming
// path.
func TestStreamEncodersMatchWritersSimulator(t *testing.T) {
	axis, err := ChaosAxis("straggler:0x2@1")
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	g.Profiles = axis
	r := &Runner{Parallel: 4}
	wantJ, wantC, wantX := encodeInMemory(t, r, g)
	gotJ, gotC, gotX := encodeStreaming(t, r, g)
	if !bytes.Equal(wantJ, gotJ) {
		t.Error("streaming JSON differs from the reference writer on simulator grid")
	}
	if !bytes.Equal(wantC, gotC) {
		t.Error("streaming CSV differs from the reference writer on simulator grid")
	}
	if !bytes.Equal(wantX, gotX) {
		t.Error("streaming text differs from the reference writer on simulator grid")
	}
}

// TestRunStreamDeliversInOrder pins the ordering contract directly: cells
// arrive at the aggregator in enumeration order at any pool width, exactly
// once each.
func TestRunStreamDeliversInOrder(t *testing.T) {
	g := funcGrid(8)
	for _, parallel := range []int{1, 3, 16} {
		var got []int
		agg := &funcAggregator{
			cell: func(c CellResult) error {
				got = append(got, c.Index)
				return nil
			},
		}
		if err := (&Runner{Parallel: parallel}).RunStream(bg, g, agg); err != nil {
			t.Fatal(err)
		}
		if len(got) != g.Size() {
			t.Fatalf("parallel %d: delivered %d cells, want %d", parallel, len(got), g.Size())
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("parallel %d: delivery %d carried index %d", parallel, i, idx)
			}
		}
		if !agg.began || !agg.ended {
			t.Fatalf("parallel %d: began=%v ended=%v", parallel, agg.began, agg.ended)
		}
	}
}

// funcAggregator adapts closures to the Aggregator interface for tests.
type funcAggregator struct {
	began, ended bool
	cell         func(CellResult) error
	end          func() error
}

func (a *funcAggregator) Begin(Meta) error { a.began = true; return nil }
func (a *funcAggregator) Cell(c CellResult) error {
	if a.cell != nil {
		return a.cell(c)
	}
	return nil
}
func (a *funcAggregator) End() error {
	a.ended = true
	if a.end != nil {
		return a.end()
	}
	return nil
}

// TestRunStreamLowestIndexError: with several failing cells racing on a wide
// pool, the error surfaced must be the lowest-index one (ordered delivery
// makes the failure deterministic), and End must not run.
func TestRunStreamLowestIndexError(t *testing.T) {
	g := funcGrid(8)
	inner := g.Cell
	g.Cell = func(si, pi, fi, ai int) CellFunc {
		fn := inner(si, pi, fi, ai)
		return func(ctx context.Context, seed uint64) (*Outcome, error) {
			// Fail every cell of rowB; the lowest enumerated rowB cell
			// must win regardless of completion order.
			if si == 1 {
				return nil, fmt.Errorf("boom si=%d pi=%d", si, pi)
			}
			return fn(ctx, seed)
		}
	}
	agg := &funcAggregator{}
	err := (&Runner{Parallel: 8}).RunStream(bg, g, agg)
	if err == nil {
		t.Fatal("failing grid returned nil error")
	}
	if !strings.Contains(err.Error(), "rowB/colX") || !strings.Contains(err.Error(), "replica 0") {
		t.Errorf("error is not the lowest-index failure: %v", err)
	}
	if agg.ended {
		t.Error("End ran despite a failed grid")
	}
}

// TestRunStreamCancelNoGoroutineLeak cancels a streaming run mid-flight and
// verifies every engine goroutine (workers, dispatcher) exits: the goroutine
// count must settle back to its baseline.
func TestRunStreamCancelNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	g := funcGrid(64)
	inner := g.Cell
	started := make(chan struct{}, 1)
	g.Cell = func(si, pi, fi, ai int) CellFunc {
		fn := inner(si, pi, fi, ai)
		return func(ctx context.Context, seed uint64) (*Outcome, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return fn(ctx, seed)
			}
		}
	}
	errc := make(chan error, 1)
	go func() {
		errc <- (&Runner{Parallel: 4}).RunStream(ctx, g, &funcAggregator{})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled stream returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunStream did not return after cancel")
	}

	// Goroutines unwind asynchronously after RunStream returns; poll.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestRunStreamAggregatorErrorStops: an aggregator error aborts the run with
// that error and cancels outstanding work.
func TestRunStreamAggregatorErrorStops(t *testing.T) {
	g := funcGrid(16)
	wantErr := errors.New("sink full")
	n := 0
	agg := &funcAggregator{cell: func(CellResult) error {
		n++
		if n == 3 {
			return wantErr
		}
		return nil
	}}
	err := (&Runner{Parallel: 4}).RunStream(bg, g, agg)
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want the aggregator error", err)
	}
	if agg.ended {
		t.Error("End ran despite aggregator failure")
	}
}

// TestRunMatchesLegacySemantics pins Run's regression surface now that it is
// built on RunStream: identical report to a direct serial execution and the
// same validation errors.
func TestRunMatchesLegacySemantics(t *testing.T) {
	s, err := isim.ScenarioByID("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{
		Name:      "legacy",
		Scenarios: []ScenarioSpec{scenarioSpec(s, testScale)},
		Policies:  AllPolicySpecs()[:3],
		Replicas:  2, BaseSeed: 17,
	}
	rep, err := (&Runner{Parallel: 4}).Run(bg, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Grid != "legacy" || rep.Replicas != 2 || rep.BaseSeed != 17 {
		t.Errorf("report header %+v", rep)
	}
	if len(rep.Cells) != g.Size() {
		t.Fatalf("%d cells, want %d", len(rep.Cells), g.Size())
	}
	for i, c := range rep.Cells {
		if c.Index != i || c.Outcome == nil {
			t.Fatalf("cell %d malformed: %+v", i, c)
		}
	}
}
