package main

import (
	"runtime"
	"strings"

	"repro/internal/access"
	"repro/internal/cachepolicy"
	"repro/internal/hwspec"
	"repro/internal/plancache"
	"repro/internal/sim"
)

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric, in report order. Each traced
// run reports all of them; a layer the workload does not exercise reads 0.
// Values are per iteration (one cluster run, or one grid): the mean over
// the run's traced iterations, except ratios and percentiles, which pool
// their parts over those iterations.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"nopfs.get.count", "count"},
		{"nopfs.get.wait_s", "s"},
		{"nopfs.stall_s", "s"},
		{"nopfs.epoch0_s", "s"},
		{"nopfs.fetch.local", "count"},
		{"nopfs.fetch.remote", "count"},
		{"nopfs.fetch.pfs", "count"},
		{"nopfs.fetch.false_pos", "count"},
		{"storage.tier.get.count", "count"},
		{"storage.tier.get.busy_s", "s"},
		{"storage.tier.hit_ratio", "ratio"},
		{"storage.tier.put.count", "count"},
		{"storage.tier.put.busy_s", "s"},
		{"storage.tier.put.rejected", "count"},
		{"storage.tier.used_mb", "MiB"},
		{"storage.pfs.wait_s", "s"},
		{"dataset.read.count", "count"},
		{"dataset.read.busy_s", "s"},
		{"dataset.read.mb", "MiB"},
		{"transport.call.count", "count"},
		{"transport.call.busy_s", "s"},
		{"transport.call_us.p50", "us"},
		{"transport.call_us.p99", "us"},
		{"transport.call.failed", "count"},
		{"transport.call.miss_ratio", "ratio"},
		{"transport.call.mb", "MiB"},
		{"transport.serve.count", "count"},
		{"transport.serve.busy_s", "s"},
		{"resilience.retries", "count"},
		{"access.orders_s.uniform", "s"},
		{"access.orders_s.zipf", "s"},
		{"plancache.artifacts_s", "s"},
	}
	for _, f := range assignFamilies {
		ms = append(ms, layerMetric{"cachepolicy.assign_s." + f, "s"})
	}
	for _, p := range sim.AllPolicies() {
		ms = append(ms, layerMetric{"sim.run_s." + policyKey(p.Name()), "s"})
	}
	ms = append(ms,
		layerMetric{"sim.cells", "count"},
		layerMetric{"sweep.encode.busy_s", "s"},
		layerMetric{"sweep.encode.mb", "MiB"},
		layerMetric{"runtime.gc.count", "count"},
		layerMetric{"runtime.gc.pause_s", "s"},
	)
	for _, l := range selfLayers {
		ms = append(ms, layerMetric{l + ".self_s", "s"})
	}
	return append(ms, layerMetric{"trace.overhead_pct", "%"})
}()

// assignFamilies are the placement families the simulator's policies build.
var assignFamilies = []string{
	plancache.FamilyNoPFS, plancache.FamilyRandom, plancache.FamilyFirstTouch,
	plancache.FamilyShard, plancache.FamilyPreload,
}

// policyKey turns a policy label into a metric-name suffix:
// "DeepIO (Ord.)" -> "deepio-ord".
func policyKey(label string) string {
	r := strings.NewReplacer(" (", "-", "(", "-", ")", "", ".", "", " ", "")
	return strings.ToLower(r.Replace(label))
}

// probePlan is one plan an iteration runs, with the dataset and node its
// placements are built for.
type probePlan struct {
	plan *access.Plan
	ds   cachepolicy.Sizer
	node hwspec.Node
}

// setupLayers times the set-up layers directly on the plans of one
// iteration: epoch-order generation (each uniform plan and its zipf
// variant), a cold plan-artifact build in a private cache (the shared one is
// left alone), and each placement family's build on those artifacts. lean
// selects the simulator's worker-0 builders; the live engine builds full
// per-rank placements. Results add into m.
func setupLayers(t *tracer, plans []probePlan, lean bool, m map[string]float64) error {
	workers := runtime.GOMAXPROCS(0)
	zipf, err := access.CanonicalSpec("zipf")
	if err != nil {
		return err
	}
	cache := plancache.New(0, workers)
	for _, pp := range plans {
		p := pp.plan
		if p.Access == "" {
			z := *p
			z.Access = zipf
			m["access.orders_s.uniform"] += timed(t, spanOrders, func() { p.EpochOrders(workers) })
			m["access.orders_s.zipf"] += timed(t, spanOrders, func() { z.EpochOrders(workers) })
		}
		var art *plancache.Artifacts
		m["plancache.artifacts_s"] += timed(t, spanArtifacts, func() { art = cache.Artifacts(*p) })
		for _, f := range assignFamilies {
			build := assignBuilder(f, p, art, pp.ds, pp.node, lean)
			m["cachepolicy.assign_s."+f] += timed(t, spanAssign, func() { build() })
		}
	}
	return nil
}

// assignBuilder returns the builder the engines use for family f.
func assignBuilder(f string, p *access.Plan, art *plancache.Artifacts, ds cachepolicy.Sizer, node hwspec.Node, lean bool) func() *cachepolicy.Assignment {
	switch {
	case f == plancache.FamilyNoPFS && lean:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildNoPFSLean(p, art.Streams, ds, node) }
	case f == plancache.FamilyNoPFS:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildNoPFSFromStreams(p, art.Streams, ds, node) }
	case f == plancache.FamilyRandom && lean:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildRandomLean(p, art.Streams, ds, node) }
	case f == plancache.FamilyRandom:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildRandomFromStreams(p, art.Streams, ds, node) }
	case f == plancache.FamilyFirstTouch && lean:
		return func() *cachepolicy.Assignment {
			return cachepolicy.BuildFirstTouchLean(p, art.EpochOrders[0], ds, node)
		}
	case f == plancache.FamilyFirstTouch:
		return func() *cachepolicy.Assignment {
			return cachepolicy.BuildFirstTouchFromOrder(p, art.EpochOrders[0], ds, node)
		}
	case f == plancache.FamilyShard && lean:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildShardLean(p.F, p.N, ds, node) }
	case f == plancache.FamilyShard:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildShard(p.F, p.N, ds, node) }
	case lean:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildPreloadLean(p.F, p.N, ds, node) }
	default:
		return func() *cachepolicy.Assignment { return cachepolicy.BuildPreload(p.F, p.N, ds, node) }
	}
}

// timed runs fn as one root span and returns its length in seconds.
func timed(t *tracer, kind int, fn func()) float64 {
	r, start := t.begin(kind)
	fn()
	return t.end(r, ref{}, start).Seconds()
}

// gcDelta measures the GC work done while fn runs.
func gcDelta(fn func()) (count float64, pause float64) {
	n0, p0 := gcStats()
	fn()
	n1, p1 := gcStats()
	return float64(n1 - n0), (p1 - p0).Seconds()
}

// layerReport folds the traced iterations' totals into the per-layer
// metrics: means per iteration, ratios and percentiles from pooled parts.
func layerReport(traced []iterResult, untracedThr, tracedThr []float64) map[string]float64 {
	out := map[string]float64{}
	if len(traced) == 0 {
		return out
	}
	sum := map[string]float64{}
	var callUs []float64
	for _, it := range traced {
		for k, v := range it.Layers {
			sum[k] += v
		}
		callUs = append(callUs, it.CallUs...)
	}
	n := float64(len(traced))
	for _, m := range layerMetrics {
		out[m.name] = sum[m.name] / n
	}
	out["storage.tier.hit_ratio"] = ratio(sum[rawTierHits], sum["storage.tier.get.count"])
	out["transport.call.miss_ratio"] = ratio(sum[rawFetchMiss], sum[rawFetchCalls])
	out["transport.call_us.p50"] = percentile(callUs, 0.50)
	out["transport.call_us.p99"] = percentile(callUs, 0.99)
	out["trace.overhead_pct"] = overheadPct(untracedThr, tracedThr)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
