package cachepolicy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/hwspec"
)

// refBuildFromStreams is the comparison-sort NoPFS/Random builder the
// linear-time buildFromStreams replaced, kept verbatim as the test oracle:
// candidates are sorted by (freq desc, first access asc), or by first access
// alone for the random ablation, filled greedily, and each class's fill list
// is then sorted by first access.
func refBuildFromStreams(plan *access.Plan, streams [][]access.SampleID, ds Sizer, node hwspec.Node, ignoreFreq, lean bool) *Assignment {
	a := newAssignment(plan.N, plan.F, len(node.Classes), lean)
	caps := classCaps(node)

	// Reusable per-worker scratch; reset only the touched entries.
	freq := make([]int32, plan.F)
	firstPos := make([]int32, plan.F)
	for k := range firstPos {
		firstPos[k] = -1
	}

	for w := 0; w < plan.N; w++ {
		stream := streams[w]
		for pos, k := range stream {
			if firstPos[k] < 0 {
				firstPos[k] = int32(pos)
			}
			freq[k]++
		}
		// Candidates: distinct samples this worker accesses, most frequent
		// first; among equals, the one needed soonest.
		cand := make([]int32, 0, len(stream))
		for _, k := range stream {
			if freq[k] > 0 {
				cand = append(cand, k)
				freq[k] = -freq[k] // mark visited, preserve magnitude
			}
		}
		for _, k := range cand {
			freq[k] = -freq[k]
		}
		// Direct int32 comparators (no reflection): candidates are distinct
		// samples, so firstPos breaks every tie and the order is total —
		// identical output to the previous sort.Slice regardless of sort
		// algorithm. Both comparator branches subtract int32 values promoted
		// to int, which cannot overflow.
		if ignoreFreq {
			slices.SortFunc(cand, func(a, b int32) int {
				return int(firstPos[a]) - int(firstPos[b])
			})
		} else {
			slices.SortFunc(cand, func(a, b int32) int {
				if freq[a] != freq[b] {
					return int(freq[b]) - int(freq[a]) // most frequent first
				}
				return int(firstPos[a]) - int(firstPos[b])
			})
		}
		refFillGreedy(a, w, cand, ds, caps, firstPos)
		refSortFillOrders(a, w, firstPos)
		// Reset scratch for the next worker.
		for _, k := range stream {
			freq[k] = 0
			firstPos[k] = -1
		}
	}
	return a
}

// refFillGreedy assigns candidates to worker w's classes fastest-first until
// capacity runs out. A sample too large for the remaining space of one class
// falls through to the next.
func refFillGreedy(a *Assignment, w int, cand []int32, ds Sizer, caps []int64, firstPos []int32) {
	remaining := append([]int64(nil), caps...)
	for _, k := range cand {
		sz := ds.Size(int(k))
		for c := range remaining {
			if remaining[c] >= sz {
				remaining[c] -= sz
				a.place(w, k, int8(c), sz, firstPos[k])
				break
			}
		}
	}
}

// refSortFillOrders orders each class's fill list by first access so the
// prefetchers load soonest-needed samples first (Rule 1). Untracked workers
// of lean assignments have no fill lists.
func refSortFillOrders(a *Assignment, w int, firstPos []int32) {
	for c := range a.FillOrder[w] {
		list := a.FillOrder[w][c]
		slices.SortFunc(list, func(x, y int32) int {
			return int(firstPos[x]) - int(firstPos[y])
		})
	}
}

// refPatterns are the access patterns the oracle comparison covers, by
// index (the fuzz target picks one by number).
var refPatterns = []string{"uniform", "zipf", "hot-set", "curriculum", "mix", "elastic"}

// refPlan builds a validated plan for pattern index pat. The elastic
// pattern is sized to the plan so some ranks have short streams (rank 0
// leaves after epoch 0) and, for N ≥ 2, one rank never joins and has an
// empty stream.
func refPlan(seed uint64, f, n, e, pat int, dropLast bool) (*access.Plan, error) {
	spec := refPatterns[pat%len(refPatterns)]
	if spec == "elastic" {
		switch {
		case n == 1:
			spec = fmt.Sprintf("elastic:leave=0@%d", e)
		case n == 2:
			spec = fmt.Sprintf("elastic:join=1@%d", e)
		default:
			spec = fmt.Sprintf("elastic:join=%d@%d,leave=0@1", n-1, e)
		}
	}
	canon, err := access.CanonicalSpec(spec)
	if err != nil {
		return nil, err
	}
	plan := &access.Plan{Seed: seed, F: f, N: n, E: e, BatchPerWorker: 2, DropLast: dropLast, Access: canon}
	return plan, plan.Validate()
}

// refDataset returns f samples of variable size (mean 64 KiB, σ 32 KiB).
func refDataset(f int, seed uint64) *dataset.Synthetic {
	return dataset.MustNew(dataset.Spec{
		Name: "ref", F: f, MeanSize: 64 << 10, StddevSize: 32 << 10, Classes: 3, Seed: seed,
	})
}

// midRunNode returns a node with nClasses classes whose fill boundaries on
// worker 0 fall in the middle of runs of equal access frequency, so the
// first-access tie-break decides which samples of a run each class takes.
// Each capacity ends half a sample short of the run's next sample, which
// then falls through to a later class.
func midRunNode(stream []access.SampleID, ds Sizer, nClasses int) hwspec.Node {
	freq := map[access.SampleID]int{}
	var order []access.SampleID // first-access order
	for _, k := range stream {
		if freq[k] == 0 {
			order = append(order, k)
		}
		freq[k]++
	}
	slices.SortStableFunc(order, func(a, b access.SampleID) int { return freq[b] - freq[a] })

	node := nodeWithMB(0, 0)
	prev := 0
	for c := 1; c <= nClasses; c++ {
		var capBytes int64
		if len(order) > 0 {
			i := max(c*len(order)/(nClasses+1), prev)
			lo, hi := i, i
			for lo > prev && freq[order[lo-1]] == freq[order[i]] {
				lo--
			}
			for hi+1 < len(order) && freq[order[hi+1]] == freq[order[i]] {
				hi++
			}
			i = (lo + hi) / 2
			for _, k := range order[prev:i] {
				capBytes += ds.Size(int(k))
			}
			capBytes += ds.Size(int(order[i])) / 2
			prev = i
		}
		node.Classes = append(node.Classes, hwspec.StorageClass{
			Name: fmt.Sprintf("c%d", c), CapacityMB: float64(capBytes) / bytesPerMB, Threads: 1,
			Read: hwspec.Flat(1000), Write: hwspec.Flat(1000),
		})
	}
	return node
}

// checkMatchesReference compares all four stream builders against the
// oracle on one plan, dataset and node.
func checkMatchesReference(t *testing.T, plan *access.Plan, ds Sizer, node hwspec.Node) {
	t.Helper()
	streams := plan.AllWorkerStreams()
	builders := []struct {
		name             string
		build            func(*access.Plan, [][]access.SampleID, Sizer, hwspec.Node) *Assignment
		ignoreFreq, lean bool
	}{
		{"nopfs", BuildNoPFSFromStreams, false, false},
		{"nopfs-lean", BuildNoPFSLean, false, true},
		{"random", BuildRandomFromStreams, true, false},
		{"random-lean", BuildRandomLean, true, true},
	}
	for _, b := range builders {
		got := b.build(plan, streams, ds, node)
		want := refBuildFromStreams(plan, streams, ds, node, b.ignoreFreq, b.lean)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: assignment differs from the sort-based reference (plan %+v, %d classes)",
				b.name, *plan, len(node.Classes))
		}
	}
}

// TestBuildMatchesReference: the linear-time builders reproduce the
// sort-based oracle exactly — local rows, fill orders, best-holder pairs
// and cached bytes — across access patterns, plan shapes and class counts.
func TestBuildMatchesReference(t *testing.T) {
	const f = 240
	ds := refDataset(f, 9)
	for pat := range refPatterns {
		for _, n := range []int{1, 2, 3, 8} {
			for _, e := range []int{1, 3, 8} {
				plan, err := refPlan(uint64(100+pat), f, n, e, pat, false)
				if err != nil {
					t.Fatalf("%s N=%d E=%d: %v", refPatterns[pat], n, e, err)
				}
				stream0 := plan.WorkerStream(0)
				for classes := 1; classes <= 3; classes++ {
					name := fmt.Sprintf("%s/N=%d/E=%d/classes=%d", refPatterns[pat], n, e, classes)
					t.Run(name, func(t *testing.T) {
						checkMatchesReference(t, plan, ds, midRunNode(stream0, ds, classes))
					})
				}
			}
		}
	}
}

// FuzzBuildMatchesReference drives the oracle comparison with arbitrary
// small plans: dataset size, workers, epochs, per-class capacities (as
// per-mille of the dataset's bytes; a zero ends the class list) and the
// access pattern.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(4), uint8(3), uint16(100), uint16(200), uint16(0), uint8(0), false)
	f.Add(uint64(2), uint8(200), uint8(8), uint8(8), uint16(30), uint16(30), uint16(30), uint8(1), false)
	f.Add(uint64(3), uint8(90), uint8(3), uint8(2), uint16(500), uint16(0), uint16(0), uint8(2), true)
	f.Add(uint64(4), uint8(120), uint8(2), uint8(5), uint16(70), uint16(400), uint16(0), uint8(3), false)
	f.Add(uint64(5), uint8(50), uint8(5), uint8(1), uint16(1000), uint16(1000), uint16(1000), uint8(4), true)
	f.Add(uint64(6), uint8(80), uint8(3), uint8(4), uint16(150), uint16(50), uint16(0), uint8(5), false)
	f.Fuzz(func(t *testing.T, seed uint64, fSamples, n, e uint8, cap0, cap1, cap2 uint16, pat uint8, dropLast bool) {
		nw, ne := int(n%8)+1, int(e%8)+1
		fs := max(int(fSamples), 2*nw)
		plan, err := refPlan(seed, fs, nw, ne, int(pat), dropLast)
		if err != nil {
			t.Skip(err)
		}
		ds := refDataset(fs, seed)
		node := nodeWithMB(0, 0)
		for _, permille := range []uint16{cap0, cap1, cap2} {
			if permille == 0 {
				break
			}
			capBytes := ds.TotalSize() * int64(permille%1001) / 1000
			node.Classes = append(node.Classes, hwspec.StorageClass{
				Name: "c", CapacityMB: float64(capBytes) / bytesPerMB, Threads: 1,
				Read: hwspec.Flat(1000), Write: hwspec.Flat(1000),
			})
		}
		checkMatchesReference(t, plan, ds, node)
	})
}
