package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/hwspec"
	"repro/nopfs"
)

// The live dataset: 8192 samples of mean 16 KiB (σ 4 KiB), 128 MiB in all.
const (
	liveSamples      = 8192
	liveMeanBytes    = 16 << 10
	liveStddevBytes  = 4 << 10
	liveBatch        = 32
	liveStagingBytes = 16 << 20
)

// liveSpec is one live workload. Every rank is a closed-loop consumer: it
// asks for its next batch only after the previous one returned and was
// checked, with no modelled compute.
type liveSpec struct {
	ranks  int
	fabric string
	// ramShare is each rank's RAM class capacity as a share of the dataset.
	ramShare float64
	// pfsMBps throttles the emulated PFS (0 = unlimited).
	pfsMBps float64
	// stagingThreads is p0 per rank. live-local runs one prefetcher beside
	// its consumer: on a 2-CPU host a second one only contends for the
	// CPUs (it cut throughput by a fifth and doubled the p99 wait).
	// live-tcp-spill's prefetchers mostly wait on the network and the PFS
	// limiter, so two of them overlap those waits.
	stagingThreads int
	epochs         int
	resilience     bool
}

var (
	// liveLocal: after the cold epoch every fetch is a local RAM hit, so
	// the staging buffer, tier Get and Job.Get bookkeeping are the cost.
	liveLocal = liveSpec{ranks: 1, fabric: nopfs.FabricChan, ramShare: 1, stagingThreads: 1, epochs: 160}
	// liveTCPSpill: the RAM classes hold 40% each, so fetches mix local
	// hits, peer fetches over loopback TCP and throttled PFS re-reads. The
	// PFS limiter at 128 MB/s paces the run; at 256 MB/s the run was bound
	// by the CPU cost of one TCP dial per call on a 2-CPU host, and its p99
	// wait followed the host's load (quartile spread 26% of the median over
	// ten runs).
	liveTCPSpill = liveSpec{ranks: 2, fabric: nopfs.FabricTCP, ramShare: 0.4, pfsMBps: 128, stagingThreads: 2, epochs: 8, resilience: true}
)

// rankRun is one rank's consumer-side record.
type rankRun struct {
	good, delivered int64
	waitsUs         []float64
	epoch0          time.Duration
}

// iterate runs one cluster and checks every delivered sample against the
// plan: rank r must receive exactly access.Plan.WorkerStream(r), in order,
// with every payload passing dataset.VerifySample. An operation is one
// planned sample.
func (s liveSpec) iterate(ctx context.Context, b *bench, iter int, mode string) (*iterResult, error) {
	ds, err := dataset.Cached(dataset.Spec{
		Name: "perfbench-live", F: liveSamples, MeanSize: liveMeanBytes,
		StddevSize: liveStddevBytes, Classes: 10, Seed: b.datasetSeed(),
	})
	if err != nil {
		return nil, err
	}
	seed := b.planSeed(iter)
	plan := &access.Plan{Seed: seed, F: ds.Len(), N: s.ranks, E: s.epochs, BatchPerWorker: liveBatch}
	expected := make([][]access.SampleID, s.ranks)
	var planned int64
	for r := range expected {
		expected[r] = plan.WorkerStream(r)
		planned += int64(len(expected[r]))
	}

	class := nopfs.Class{Name: "ram", CapacityBytes: int64(s.ramShare * float64(ds.TotalSize())), Threads: 1}
	fabric := s.fabric
	var data nopfs.Dataset = ds
	var tr *tracer
	var reg *nopfs.MetricsRegistry
	if mode == modeTraced {
		tr = newTracer(iter)
		activeTracer.Store(tr)
		defer activeTracer.Store(nil)
		class.Backend = tracedBackend
		fabric = tracedFabricPrefix + s.fabric
		data = tracedDataset{Synthetic: ds, t: tr}
		reg = nopfs.NewMetricsRegistry()
	}
	opts := nopfs.NewOptions(
		nopfs.WithSeed(seed),
		nopfs.WithEpochs(s.epochs),
		nopfs.WithBatchPerWorker(liveBatch),
		nopfs.WithStagingBuffer(liveStagingBytes),
		nopfs.WithStagingThreads(s.stagingThreads),
		nopfs.WithClasses(class),
		nopfs.WithPFSBandwidth(s.pfsMBps),
		nopfs.WithFabric(fabric),
	)
	if s.resilience {
		nopfs.WithResilience(nopfs.DefaultResilience())(&opts)
	}
	if reg != nil {
		nopfs.WithMetrics(reg)(&opts)
	}

	runs := make([]rankRun, s.ranks)
	var entered atomic.Int32
	var timedStart time.Time
	var alloc0 uint64
	consume := func(ctx context.Context, job *nopfs.Job) error {
		entry := time.Now()
		if entered.Add(1) == int32(s.ranks) {
			// The last rank in ends set-up and starts the timed phase.
			timedStart = entry
			alloc0 = memAlloc()
		}
		rr := &runs[job.Rank()]
		exp := expected[job.Rank()]
		perEpoch := job.IterationsPerEpoch()
		rr.waitsUs = make([]float64, 0, len(exp)/liveBatch+1)
		for n := 1; ; n++ {
			var r ref
			if tr != nil {
				r, _ = tr.begin(spanGetBatch)
			}
			start := time.Now()
			batch, err := job.GetBatch(ctx, 0)
			wait := time.Since(start)
			if tr != nil {
				tr.end(r, ref{}, start)
			}
			if err != nil {
				return err
			}
			if batch == nil {
				return nil
			}
			rr.waitsUs = append(rr.waitsUs, float64(wait.Nanoseconds())/1e3)
			for _, smp := range batch {
				pos := rr.delivered
				rr.delivered++
				if pos < int64(len(exp)) && smp.ID == int(exp[pos]) && dataset.VerifySample(smp.ID, smp.Data) == nil {
					rr.good++
				}
			}
			if n == perEpoch {
				rr.epoch0 = time.Since(entry)
			}
		}
	}

	it := &iterResult{Attempted: planned}
	var stats []nopfs.Stats
	var runErr error
	var call, end time.Time
	gcCount, gcPause := gcDelta(func() {
		call = time.Now()
		stats, runErr = nopfs.RunCluster(ctx, data, s.ranks, opts, consume)
		end = time.Now()
	})
	alloc1 := memAlloc()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	var good, delivered int64
	var waits []float64
	for _, rr := range runs {
		good += rr.good
		delivered += rr.delivered
		waits = append(waits, rr.waitsUs...)
	}
	if good != planned || runErr != nil {
		it.fail(planned-good, "iteration %d: %d of %d planned samples wrong or missing (run error: %v)", iter, planned-good, planned, runErr)
	}
	if timedStart.IsZero() {
		return it, nil
	}
	timed := end.Sub(timedStart).Seconds()
	it.SetupS = timedStart.Sub(call).Seconds()
	it.SamplesPerS = float64(delivered) / timed
	it.Throughput = it.SamplesPerS
	it.CellsPerS = 1 / end.Sub(call).Seconds()
	it.WaitsUs = waits
	it.AllocMiB = float64(alloc1-alloc0) / mib

	var retries int64
	for _, st := range stats {
		retries += st.Retries
	}
	it.Diag = map[string]any{"iteration": iter, "mode": mode, "retries": retries}
	if s.fabric == nopfs.FabricTCP {
		it.Diag["tcp_time_wait"] = timeWaitSockets()
	}
	if tr == nil {
		return it, nil
	}

	m := map[string]float64{}
	for _, st := range stats {
		m["nopfs.stall_s"] += st.StallSeconds
		m["nopfs.fetch.local"] += float64(st.Fetches[nopfs.SourceLocal])
		m["nopfs.fetch.remote"] += float64(st.Fetches[nopfs.SourceRemote])
		m["nopfs.fetch.pfs"] += float64(st.Fetches[nopfs.SourcePFS])
		m["nopfs.fetch.false_pos"] += float64(st.RemoteFalsePositives)
		m["storage.tier.used_mb"] += float64(st.CachedBytes) / mib
		m["resilience.retries"] += float64(st.Retries)
	}
	for _, rr := range runs {
		m["nopfs.epoch0_s"] = max(m["nopfs.epoch0_s"], rr.epoch0.Seconds())
	}
	if m["storage.pfs.wait_s"], err = pfsWaitSeconds(reg); err != nil {
		return nil, err
	}
	m["runtime.gc.count"], m["runtime.gc.pause_s"] = gcCount, gcPause
	if err := setupLayers(tr, []probePlan{{plan: plan, ds: ds, node: liveNode(class)}}, false, m); err != nil {
		return nil, err
	}
	for k, v := range tr.layers() {
		m[k] = v
	}
	it.Layers = m
	it.CallUs = tr.callUs
	if path, err := tr.writeSpans(traceDir, spanFile(b, iter)); err == nil {
		it.Diag["spans"] = path
	}
	it.Diag["spans_recorded"] = tr.nSpans.Load()
	return it, nil
}

// liveNode is the hardware view the live engine builds its placement for:
// only the class capacities matter to the cache policy.
func liveNode(c nopfs.Class) hwspec.Node {
	return hwspec.Node{
		Staging:          hwspec.StorageClass{Name: "staging", CapacityMB: 1, Threads: 1, Read: hwspec.Flat(1), Write: hwspec.Flat(1)},
		InterconnectMBps: 1,
		Classes: []hwspec.StorageClass{{
			Name: c.Name, CapacityMB: float64(c.CapacityBytes) / mib, Threads: c.Threads,
			Read: hwspec.Flat(1), Write: hwspec.Flat(1),
		}},
	}
}

// pfsWaitSeconds reads the PFS limiter's total wait from the run's metrics.
func pfsWaitSeconds(reg *nopfs.MetricsRegistry) (float64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0, err
	}
	const series = `nopfs_limiter_wait_seconds_total{limiter="pfs"}`
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metrics carry no %s series", series)
}
