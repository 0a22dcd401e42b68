package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"sync"
	"time"

	"repro/internal/plancache"
	"repro/internal/sweep"
	"repro/sim"
)

// The sim-fig8 grid: the six Fig. 8 panels × every policy × {uniform, zipf}
// at dataset scale 0.05, one replica, on a pool of two workers.
const (
	simScale    = 0.05
	simParallel = 2
	simPattern  = "zipf"
)

// simIterate runs the grid once through Runner.RunStream into the JSON
// aggregator, writing to a hash instead of a file. An operation is one
// cell. Checks: no cell fails except the LBANN cells the paper expects to
// exceed aggregate RAM, NoPFS is never faster than LowerBound on any panel
// × pattern, and the timed grid makes no plan-artifact miss after set-up.
// The report digest is compared across processes by the caller.
func simIterate(ctx context.Context, b *bench, iter int, mode string) (*iterResult, error) {
	seed := b.planSeed(iter)
	g := sim.Fig8Grid(simScale, seed, 1)
	pats, err := sim.AccessAxis(simPattern)
	if err != nil {
		return nil, err
	}
	g.Patterns = pats

	// Set-up: materialise every row's config under each pattern and warm
	// its plan artifacts, as the grid's cells will request them.
	setupStart := time.Now()
	var plans []probePlan
	for _, s := range g.Scenarios {
		for _, p := range g.Patterns {
			cfg, err := s.Config(seed)
			if err != nil {
				return nil, err
			}
			cfg.Access = p.Spec
			plan := cfg.Plan()
			plancache.Shared().Artifacts(*plan)
			plans = append(plans, probePlan{plan: plan, ds: cfg.DS, node: cfg.Sys.Node})
		}
	}
	setup := time.Since(setupStart)
	misses := plancache.Shared().Stats().Misses

	var tr *tracer
	if mode == modeTraced {
		tr = newTracer(iter)
	}
	cells := &cellTimes{}
	if mode != modeVerify {
		g.Cell, g.Metrics = timedCells(g, cells, tr), sweep.SimMetrics()
	}
	digest := &countingHash{h: sha256.New()}
	var enc sim.Aggregator = sim.NewJSONAggregator(digest)
	if tr != nil {
		enc = &tracedAggregator{inner: enc, t: tr}
	}
	chk := &simCheck{}

	it := &iterResult{Attempted: int64(g.Size())}
	alloc0 := memAlloc()
	var runErr error
	var wall time.Duration
	gcCount, gcPause := gcDelta(func() {
		start := time.Now()
		runErr = (&sim.Runner{Parallel: simParallel}).RunStream(ctx, g, enc, chk)
		wall = time.Since(start)
	})
	alloc1 := memAlloc()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if runErr != nil {
		it.fail(it.Attempted, "iteration %d: grid failed: %v", iter, runErr)
		return it, nil
	}
	chk.verify(it, iter)
	lateMisses := plancache.Shared().Stats().Misses - misses
	if lateMisses > 0 {
		it.fail(lateMisses, "iteration %d: %d plan-artifact misses after set-up", iter, lateMisses)
	}

	it.Digest = hex.EncodeToString(digest.h.Sum(nil))
	it.SetupS = setup.Seconds()
	it.CellsPerS = float64(chk.cells) / wall.Seconds()
	it.SamplesPerS = float64(chk.samples) / wall.Seconds()
	it.Throughput = it.CellsPerS
	it.WaitsUs = cells.us
	it.AllocMiB = float64(alloc1-alloc0) / mib
	it.Diag = map[string]any{
		"iteration": iter, "mode": mode, "digest": it.Digest,
		"lbann_exceeds_ram_cells": chk.expectedFails, "plan_artifact_misses_after_setup": lateMisses,
	}
	if tr == nil {
		return it, nil
	}

	m := map[string]float64{
		"sweep.encode.mb":    float64(digest.n) / mib,
		"runtime.gc.count":   gcCount,
		"runtime.gc.pause_s": gcPause,
	}
	for policy, s := range cells.runS {
		m["sim.run_s."+policyKey(policy)] = s
	}
	if err := setupLayers(tr, plans, true, m); err != nil {
		return nil, err
	}
	for k, v := range tr.layers() {
		m[k] = v
	}
	it.Layers = m
	if path, err := tr.writeSpans(traceDir, spanFile(b, iter)); err == nil {
		it.Diag["spans"] = path
	}
	return it, nil
}

// cellTimes collects the wall time of every cell.
type cellTimes struct {
	mu   sync.Mutex
	us   []float64
	runS map[string]float64 // sim.Run seconds per policy (traced only)
}

func (ct *cellTimes) addRun(policy string, d time.Duration) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.runS == nil {
		ct.runS = map[string]float64{}
	}
	ct.runS[policy] += d.Seconds()
}

// timedCells binds the grid's cells the way the sweep engine's default
// simulator binding does — materialise the row's config for the cell seed,
// stamp the access pattern, simulate a fresh policy — and times each cell.
// The grids here carry no fault-profile axis and no memo, so nothing else
// of the default binding applies; the verify iteration runs the default
// binding itself and must produce the identical report.
func timedCells(g *sim.Grid, ct *cellTimes, t *tracer) func(si, pi, fi, ai int) sim.CellFunc {
	return func(si, pi, _, ai int) sim.CellFunc {
		row, col, pat := g.Scenarios[si], g.Policies[pi], g.Patterns[ai]
		return func(ctx context.Context, seed uint64) (*sim.Outcome, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var cell ref
			if t != nil {
				cell, _ = t.begin(spanCell)
			}
			start := time.Now()
			cfg, err := row.Config(seed)
			if err != nil {
				return nil, err
			}
			if pat.Spec != "" {
				cfg.Access = pat.Spec
			}
			pol := col.New()
			if pol == nil {
				return nil, fmt.Errorf("policy %q constructor returned nil", col.Name)
			}
			var run ref
			if t != nil {
				run, _ = t.begin(spanSimRun)
			}
			runStart := time.Now()
			r, err := sim.Run(cfg, pol)
			if t != nil {
				ct.addRun(col.Name, t.end(run, cell, runStart))
			}
			if err != nil {
				return nil, err
			}
			out := sweep.SimOutcome(r)
			d := time.Since(start)
			if t != nil {
				t.end(cell, ref{}, start)
			}
			ct.mu.Lock()
			ct.us = append(ct.us, float64(d.Nanoseconds())/1e3)
			ct.mu.Unlock()
			return out, nil
		}
	}
}

// simCheck is an aggregator that checks every cell as it streams by.
type simCheck struct {
	cells, samples, expectedFails int64
	failed                        []string
	// exec[panel|pattern][policy] is the simulated execution time.
	exec map[string]map[string]float64
}

func (c *simCheck) Begin(sim.AggregatorMeta) error {
	c.exec = map[string]map[string]float64{}
	return nil
}

func (c *simCheck) Cell(cr sim.CellResult) error {
	c.cells++
	o := cr.Outcome
	if o.Failed {
		// LBANN's data store cannot hold a dataset larger than aggregate
		// RAM: the paper's expected result, not a failure.
		if strings.HasPrefix(cr.Policy, "LBANN") && strings.Contains(o.FailReason, "exceeds aggregate RAM") {
			c.expectedFails++
		} else {
			c.failed = append(c.failed, fmt.Sprintf("%s/%s/%s: %s", cr.Scenario, cr.Pattern, cr.Policy, o.FailReason))
		}
		return nil
	}
	if r, ok := o.Payload.(*sim.Result); ok {
		for _, n := range r.LocCount {
			c.samples += n
		}
	}
	key := cr.Scenario + "|" + cr.Pattern
	if c.exec[key] == nil {
		c.exec[key] = map[string]float64{}
	}
	c.exec[key][cr.Policy] = o.Values[sim.MetricExec]
	return nil
}

func (c *simCheck) End() error { return nil }

// verify records the failed checks on it.
func (c *simCheck) verify(it *iterResult, iter int) {
	for _, f := range c.failed {
		it.fail(1, "iteration %d: cell failed: %s", iter, f)
	}
	if c.cells != it.Attempted {
		it.fail(it.Attempted-c.cells, "iteration %d: %d of %d cells delivered", iter, c.cells, it.Attempted)
	}
	for key, byPolicy := range c.exec {
		nopfs, okN := byPolicy[sim.NewNoPFS().Name()]
		lower, okL := byPolicy[sim.NewLowerBound().Name()]
		if !okN || !okL || nopfs < lower {
			it.fail(2, "iteration %d: %s: NoPFS exec %.6g vs LowerBound %.6g (missing or below)", iter, key, nopfs, lower)
		}
	}
}

// tracedAggregator times the encoder the grid streams into.
type tracedAggregator struct {
	inner sim.Aggregator
	t     *tracer
}

func (a *tracedAggregator) Begin(m sim.AggregatorMeta) error {
	r, start := a.t.begin(spanEncode)
	defer a.t.end(r, ref{}, start)
	return a.inner.Begin(m)
}

func (a *tracedAggregator) Cell(c sim.CellResult) error {
	r, start := a.t.begin(spanEncode)
	defer a.t.end(r, ref{}, start)
	return a.inner.Cell(c)
}

func (a *tracedAggregator) End() error {
	r, start := a.t.begin(spanEncode)
	defer a.t.end(r, ref{}, start)
	return a.inner.End()
}

// countingHash hashes and counts the report bytes in place of a file.
type countingHash struct {
	h hash.Hash
	n int64
}

func (w *countingHash) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}
