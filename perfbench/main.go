// Command perfbench is the repository's end-to-end benchmark. It drives both
// engines through their public entry points — the live cluster
// (nopfs.RunCluster, Job.GetBatch) and the simulator sweep
// (sim.Runner.RunStream) — from a single workload seed, checks every output,
// and prints one JSON result line:
//
//	perfbench --workload live-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// instrumentation in the program's path. With --trace 1 the run alternates
// untraced and traced iterations and reports the per-layer metrics of the
// traced ones, each layer's self time, and the tracing overhead. The
// benchmark only observes from outside: live layers are wrapped through the
// package's registries (a Fabric, a storage-backend kind, a Dataset), and
// the simulator's layers are timed by calling them directly. See README.md
// for the workloads, the metrics and what each layer metric should move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's settings.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// Iteration modes. A run executes each iteration in a fresh child process,
// so the program's process-wide caches (plancache.Shared, dataset.Cached)
// start cold every time, as they do for a command-line user, and memory
// figures belong to one iteration.
const (
	modePlain  = "plain"  // untraced: end-to-end figures
	modeTraced = "traced" // per-layer figures
	modeVerify = "verify" // re-run iteration 0 through the default sim binding
)

// iterResult is what one iteration's child process reports.
type iterResult struct {
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	SetupS    float64  `json:"setup_s"`
	// SamplesPerS is delivered (live) or simulated (sim) samples per
	// second; CellsPerS is completed grid cells per second, a cell being
	// one cluster run (live) or one simulated (scenario, policy, pattern).
	SamplesPerS float64 `json:"samples_per_s"`
	CellsPerS   float64 `json:"cells_per_s"`
	// Throughput is the engine's headline rate, the one the tracing
	// overhead is measured on: SamplesPerS (live) or CellsPerS (sim).
	Throughput float64 `json:"throughput"`
	// WaitsUs holds every GetBatch wait (live) or cell time (sim).
	WaitsUs    []float64          `json:"waits_us,omitempty"`
	AllocMiB   float64            `json:"alloc_mb"`
	PeakRSSMiB float64            `json:"peak_rss_mb"`
	Digest     string             `json:"digest,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	CallUs     []float64          `json:"call_us,omitempty"`
	Diag       map[string]any     `json:"diag,omitempty"`
}

func (it *iterResult) fail(n int64, format string, args ...any) {
	it.Failed += n
	if len(it.Problems) < 10 {
		it.Problems = append(it.Problems, fmt.Sprintf(format, args...))
	}
}

// iterateFunc runs iteration iter of a workload in the given mode.
type iterateFunc func(ctx context.Context, b *bench, iter int, mode string) (*iterResult, error)

// workloads maps each workload name to its iteration driver.
var workloads = map[string]iterateFunc{
	"live-local":     liveLocal.iterate,
	"live-tcp-spill": liveTCPSpill.iterate,
	"sim-fig8":       simIterate,
}

// endToEnd lists the end-to-end metrics with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"samples_per_s", "1/s"},
	{"batch_wait_p50_us", "us"},
	{"batch_wait_p99_us", "us"},
	{"cells_per_s", "1/s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: live-local, live-tcp-spill or sim-fig8")
	seed := fs.Uint64("seed", 1, "workload seed; the program sees only plan and dataset seeds derived from it")
	secs := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	iter := fs.Int("iteration", -1, "internal: run only this iteration, in this process")
	mode := fs.String("mode", modePlain, "internal: iteration mode (plain, traced, verify)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	iterate, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{
		workload: *name, seed: *seed, trace: *trace == 1,
		seconds: time.Duration(*secs * float64(time.Second)),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *iter >= 0 {
		it, err := iterate(ctx, b, *iter, *mode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: %v\n", b.workload, *iter, err)
			return 1
		}
		it.PeakRSSMiB = peakRSSMiB()
		emit(it)
		return 0
	}

	emit(map[string]any{"host": hostInfo(b)})
	res, diag, err := measure(ctx, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	emit(map[string]any{"diag": diag})
	emit(res)
	return 0
}

// measure runs iterations in child processes for the run's duration and
// folds them into the result.
func measure(ctx context.Context, b *bench) (*result, map[string]any, error) {
	var plain, traced []iterResult
	var problems []string
	var attempted, failed int64
	add := func(it *iterResult) {
		attempted += it.Attempted
		failed += it.Failed
		problems = append(problems, it.Problems...)
	}
	start := time.Now()
	for i := 0; b.more(i, start); i++ {
		mode := modePlain
		if b.traced(i) {
			mode = modeTraced
		}
		it, err := child(ctx, b, i, mode)
		if err != nil {
			return nil, nil, err
		}
		add(it)
		if mode == modeTraced {
			traced = append(traced, *it)
		} else {
			plain = append(plain, *it)
		}
	}
	diag := map[string]any{"iterations": len(plain) + len(traced), "measured_s": time.Since(start).Seconds()}
	if b.workload == "sim-fig8" {
		// The same seed must give the same report in a fresh process, and
		// the timed cell binding must match the program's default one.
		it, err := child(ctx, b, 0, modeVerify)
		if err != nil {
			return nil, nil, err
		}
		add(it)
		if it.Digest != plain[0].Digest {
			failed += it.Attempted
			problems = append(problems, fmt.Sprintf("report digest of seed iteration 0 differs on re-run: %s vs %s", it.Digest, plain[0].Digest))
		}
		diag["digest"] = plain[0].Digest
	}
	res := &result{
		Correct: failed == 0 && len(problems) == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{},
	}
	if attempted < 1 {
		res.Attempted, res.Correct = 1, false
	}
	if b.trace {
		var u, t []float64
		for _, it := range plain {
			u = append(u, it.Throughput)
		}
		for _, it := range traced {
			t = append(t, it.Throughput)
		}
		layers := layerReport(traced, u, t)
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{Value: finite(layers[m.name]), Unit: m.unit}
		}
		diag["traced_iterations"] = len(traced)
	} else {
		e2e := endToEndReport(plain)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: finite(e2e[m.name]), Unit: m.unit}
		}
		var n []int
		for _, it := range plain {
			n = append(n, len(it.WaitsUs))
		}
		diag["batch_wait_samples_per_iteration"] = n
	}
	var iterDiag []map[string]any
	for _, it := range append(plain, traced...) {
		if it.Diag == nil {
			it.Diag = map[string]any{}
		}
		it.Diag["setup_s"], it.Diag["throughput"] = it.SetupS, it.Throughput
		it.Diag["wait_p50_us"], it.Diag["wait_p99_us"] = percentile(it.WaitsUs, 0.50), percentile(it.WaitsUs, 0.99)
		iterDiag = append(iterDiag, it.Diag)
	}
	diag["per_iteration"] = iterDiag
	diag["problems"] = problems
	return res, diag, nil
}

// endToEndReport folds untraced iterations into the end-to-end metrics:
// each is the median over iterations of the iteration's figure, so one
// disturbed iteration cannot move a run, except the p99 wait, which is the
// lowest of the iterations' p99s. On a shared host, disturbances only ever
// lengthen the tail: the p99 of a 30 µs wait followed the host's load
// (quartile spread 55% of the median over ten live-local runs with the
// median), while a slower program lengthens it in every iteration.
func endToEndReport(its []iterResult) map[string]float64 {
	var setup, samples, p50, p99, cells, alloc, rss []float64
	for _, it := range its {
		setup = append(setup, it.SetupS)
		samples = append(samples, it.SamplesPerS)
		p50 = append(p50, percentile(it.WaitsUs, 0.50))
		p99 = append(p99, percentile(it.WaitsUs, 0.99))
		cells = append(cells, it.CellsPerS)
		alloc = append(alloc, it.AllocMiB)
		rss = append(rss, it.PeakRSSMiB)
	}
	return map[string]float64{
		"setup_s":           median(setup),
		"samples_per_s":     median(samples),
		"batch_wait_p50_us": median(p50),
		"batch_wait_p99_us": slices.Min(p99),
		"cells_per_s":       median(cells),
		"alloc_mb":          median(alloc),
		"peak_rss_mb":       median(rss),
	}
}

// child runs one iteration in a fresh process and returns its report.
func child(ctx context.Context, b *bench, iter int, mode string) (*iterResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"--workload", b.workload, "--seed", strconv.FormatUint(b.seed, 10),
		"--iteration", strconv.Itoa(iter), "--mode", mode)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("iteration %d (%s): %w", iter, mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var it iterResult
	if err := json.Unmarshal(lines[len(lines)-1], &it); err != nil {
		return nil, fmt.Errorf("iteration %d (%s): bad report: %w", iter, mode, err)
	}
	return &it, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints v as one JSON line on standard output.
func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode output: %v\n", err)
		return
	}
	fmt.Println(string(line))
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// hostInfo records the machine a run measured on.
func hostInfo(b *bench) map[string]any {
	h := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
	if b.workload == "live-tcp-spill" {
		// The TCP fabric dials once per call; a host short of ephemeral
		// ports shows up here first, then as failed calls and retries.
		h["tcp_time_wait"] = timeWaitSockets()
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeWaitSockets counts TCP sockets in TIME_WAIT (state 06), or -1 when the
// kernel tables cannot be read.
func timeWaitSockets() int {
	n, read := 0, false
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		read = true
		for _, line := range strings.Split(string(data), "\n")[1:] {
			if f := strings.Fields(line); len(f) > 3 && f[3] == "06" {
				n++
			}
		}
	}
	if !read {
		return -1
	}
	return n
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// splitmix derives an independent 64-bit value from x (SplitMix64).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// datasetSeed and planSeed are the only values derived from the workload
// seed that the program receives.
func (b *bench) datasetSeed() uint64      { return splitmix(b.seed ^ 0xda7a5e7) }
func (b *bench) planSeed(iter int) uint64 { return splitmix(splitmix(b.seed) + uint64(iter)) }

// traced reports whether iteration i of this run is a traced one: traced
// runs alternate untraced and traced iterations so the overhead is measured
// in the same process.
func (b *bench) traced(i int) bool { return b.trace && i%2 == 1 }

// more reports whether the run should start iteration i. Every run does at
// least one iteration, and a traced run at least one of each kind.
func (b *bench) more(i int, start time.Time) bool {
	minIters := 1
	if b.trace {
		minIters = 2
	}
	if i < minIters {
		return true
	}
	if b.trace && i%2 == 1 {
		return true // finish the untraced/traced pair
	}
	return time.Since(start) < b.seconds
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// overheadPct is the tracing overhead: the traced iterations' throughput
// shortfall against the untraced ones of the same run, in percent.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (u - median(traced)) / u
}

// memAlloc returns the cumulative bytes allocated by the process.
func memAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// gcStats returns the cumulative GC count and pause time.
func gcStats() (uint32, time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, time.Duration(m.PauseTotalNs)
}

const mib = 1 << 20
