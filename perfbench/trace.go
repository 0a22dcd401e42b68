package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/transport"
	"repro/nopfs"
)

// Span kinds: one per layer boundary the benchmark can see from outside.
const (
	spanGetBatch = iota
	spanTierGet
	spanTierPut
	spanDatasetRead
	spanCall
	spanServe
	spanCell
	spanSimRun
	spanEncode
	spanOrders
	spanArtifacts
	spanAssign
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"nopfs.get_batch", "storage.tier.get", "storage.tier.put", "dataset.read",
	"transport.call", "transport.serve", "sweep.cell", "sim.run", "sweep.encode",
	"access.orders", "plancache.artifacts", "cachepolicy.assign",
}

// spanLayers maps each span kind to the layer its self time is charged to.
var spanLayers = [numSpanKinds]string{
	"nopfs", "storage", "storage", "dataset",
	"transport", "transport", "sweep", "sim", "sweep",
	"access", "plancache", "cachepolicy",
}

// selfLayers are the layers with a reported self time.
var selfLayers = []string{"nopfs", "storage", "dataset", "transport", "sim", "sweep", "access", "plancache", "cachepolicy"}

// maxSpans bounds the spans kept in memory for the trace file; spans past
// it are still counted and timed, only not written out.
const maxSpans = 200_000

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans and per-layer counters for one traced iteration.
type tracer struct {
	run   int
	epoch time.Time

	nextID atomic.Int64
	nSpans atomic.Int64
	spans  []span

	count [numSpanKinds]atomic.Int64
	busy  [numSpanKinds]atomic.Int64 // ns
	// child[k] is the span time of children whose parent is of kind k.
	child [numSpanKinds]atomic.Int64

	tierHits, putRejected             atomic.Int64
	datasetBytes, callBytes           atomic.Int64
	callFailed, fetchCalls, fetchMiss atomic.Int64

	mu     sync.Mutex
	callUs []float64
}

func newTracer(run int) *tracer {
	return &tracer{run: run, epoch: time.Now(), spans: make([]span, maxSpans)}
}

// ref names an open span so children can point at it.
type ref struct {
	id   int64
	kind int
}

type parentKey struct{}

// withParent returns ctx carrying r as the parent of spans started below it.
func withParent(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, parentKey{}, r)
}

func parentOf(ctx context.Context) ref {
	r, _ := ctx.Value(parentKey{}).(ref)
	return r
}

// begin opens a span of the given kind.
func (t *tracer) begin(kind int) (ref, time.Time) {
	return ref{id: t.nextID.Add(1), kind: kind}, time.Now()
}

// end closes span r opened at start under parent p and returns its length.
func (t *tracer) end(r ref, p ref, start time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(start)
	t.count[r.kind].Add(1)
	t.busy[r.kind].Add(int64(d))
	if p.id != 0 {
		t.child[p.kind].Add(int64(d))
	}
	if i := t.nSpans.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{
			ID: r.id, Parent: p.id, Run: t.run, Name: spanNames[r.kind],
			Start: int64(start.Sub(t.epoch)), End: int64(now.Sub(t.epoch)),
		}
	}
	return d
}

func (t *tracer) busySeconds(kind int) float64 { return float64(t.busy[kind].Load()) / 1e9 }

// layers returns the tracer's raw per-iteration totals, keyed by the
// per-layer metric they feed (ratios and percentiles are derived later from
// the pooled parts).
func (t *tracer) layers() map[string]float64 {
	m := map[string]float64{
		"nopfs.get.count":           float64(t.count[spanGetBatch].Load()),
		"nopfs.get.wait_s":          t.busySeconds(spanGetBatch),
		"storage.tier.get.count":    float64(t.count[spanTierGet].Load()),
		"storage.tier.get.busy_s":   t.busySeconds(spanTierGet),
		"storage.tier.put.count":    float64(t.count[spanTierPut].Load()),
		"storage.tier.put.busy_s":   t.busySeconds(spanTierPut),
		"storage.tier.put.rejected": float64(t.putRejected.Load()),
		"dataset.read.count":        float64(t.count[spanDatasetRead].Load()),
		"dataset.read.busy_s":       t.busySeconds(spanDatasetRead),
		"dataset.read.mb":           float64(t.datasetBytes.Load()) / mib,
		"transport.call.count":      float64(t.count[spanCall].Load()),
		"transport.call.busy_s":     t.busySeconds(spanCall),
		"transport.call.failed":     float64(t.callFailed.Load()),
		"transport.call.mb":         float64(t.callBytes.Load()) / mib,
		"transport.serve.count":     float64(t.count[spanServe].Load()),
		"transport.serve.busy_s":    t.busySeconds(spanServe),
		"sweep.encode.busy_s":       t.busySeconds(spanEncode),
		"sim.cells":                 float64(t.count[spanCell].Load()),
		// Pooled parts of ratios.
		rawTierHits:   float64(t.tierHits.Load()),
		rawFetchCalls: float64(t.fetchCalls.Load()),
		rawFetchMiss:  float64(t.fetchMiss.Load()),
	}
	self := map[string]float64{}
	for k := 0; k < numSpanKinds; k++ {
		self[spanLayers[k]] += float64(t.busy[k].Load()-t.child[k].Load()) / 1e9
	}
	for _, l := range selfLayers {
		m[l+".self_s"] = self[l]
	}
	return m
}

// Keys of pooled ratio parts in a traced iteration's totals.
const (
	rawTierHits   = "raw.tier_hits"
	rawFetchCalls = "raw.fetch_calls"
	rawFetchMiss  = "raw.fetch_miss"
)

// writeSpans writes the kept spans as JSON lines under dir.
func (t *tracer) writeSpans(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(t.nSpans.Load(), maxSpans)
	kept := t.spans[:n]
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	for _, s := range kept {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// activeTracer is the tracer the registered live wrappers report to; it is
// set only around a traced cluster run.
var activeTracer atomic.Pointer[tracer]

// Registry names of the traced live layers.
const (
	tracedFabricPrefix = "perfbench-"
	tracedBackend      = "perfbench-mem"
)

func init() {
	nopfs.RegisterFabric(tracedFabric{inner: nopfs.FabricChan})
	nopfs.RegisterFabric(tracedFabric{inner: nopfs.FabricTCP})
	nopfs.RegisterBackend(tracedBackend, func(ctx context.Context, rank int, c nopfs.Class) (nopfs.StorageBackend, error) {
		f, err := nopfs.BackendByKind(nopfs.BackendMemory)
		if err != nil {
			return nil, err
		}
		b, err := f(ctx, rank, c)
		if err != nil {
			return nil, err
		}
		return &tracedStore{StorageBackend: b, t: activeTracer.Load()}, nil
	})
}

// tracedFabric delegates to a built-in fabric and times every call and
// serve on the endpoints it builds.
type tracedFabric struct{ inner string }

func (f tracedFabric) Name() string { return tracedFabricPrefix + f.inner }

func (f tracedFabric) Build(ctx context.Context, workers int, interconnectMBps float64) ([]nopfs.Endpoint, error) {
	inner, err := nopfs.FabricByName(f.inner)
	if err != nil {
		return nil, err
	}
	eps, err := inner.Build(ctx, workers, interconnectMBps)
	if err != nil {
		return nil, err
	}
	t := activeTracer.Load()
	for i, e := range eps {
		eps[i] = &tracedEndpoint{Endpoint: e, t: t}
	}
	return eps, nil
}

type tracedEndpoint struct {
	nopfs.Endpoint
	t *tracer
}

func (e *tracedEndpoint) Call(ctx context.Context, to int, req transport.Request) (transport.Response, error) {
	r, start := e.t.begin(spanCall)
	resp, err := e.Endpoint.Call(ctx, to, req)
	d := e.t.end(r, parentOf(ctx), start)
	switch {
	case err != nil:
		e.t.callFailed.Add(1)
	case req.Kind == transport.KindFetch:
		e.t.fetchCalls.Add(1)
		if !resp.OK {
			e.t.fetchMiss.Add(1)
		}
	}
	e.t.callBytes.Add(int64(len(resp.Data)))
	e.t.mu.Lock()
	e.t.callUs = append(e.t.callUs, float64(d)/1e3)
	e.t.mu.Unlock()
	return resp, err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(ctx context.Context, from int, req transport.Request) transport.Response {
		r, start := e.t.begin(spanServe)
		resp := h(withParent(ctx, r), from, req)
		e.t.end(r, ref{}, start)
		return resp
	})
}

// tracedStore times one rank's storage-class backend.
type tracedStore struct {
	nopfs.StorageBackend
	t *tracer
}

func (s *tracedStore) Get(ctx context.Context, id int32) ([]byte, bool, error) {
	r, start := s.t.begin(spanTierGet)
	data, ok, err := s.StorageBackend.Get(ctx, id)
	s.t.end(r, parentOf(ctx), start)
	if ok {
		s.t.tierHits.Add(1)
	}
	return data, ok, err
}

func (s *tracedStore) Put(ctx context.Context, id int32, data []byte) (bool, error) {
	r, start := s.t.begin(spanTierPut)
	ok, err := s.StorageBackend.Put(ctx, id, data)
	s.t.end(r, parentOf(ctx), start)
	if err == nil && !ok {
		s.t.putRejected.Add(1)
	}
	return ok, err
}

// tracedDataset times the emulated PFS reads. Embedding the concrete
// dataset keeps its optional methods (the size digest) visible.
type tracedDataset struct {
	*dataset.Synthetic
	t *tracer
}

func (d tracedDataset) ReadSample(id int) ([]byte, error) {
	r, start := d.t.begin(spanDatasetRead)
	data, err := d.Synthetic.ReadSample(id)
	d.t.end(r, ref{}, start)
	d.t.datasetBytes.Add(int64(len(data)))
	return data, err
}

// traceDir is where traced iterations write their spans, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/trace"

func spanFile(b *bench, iter int) string {
	return fmt.Sprintf("%s-seed%d-iter%d.jsonl", b.workload, b.seed, iter)
}
