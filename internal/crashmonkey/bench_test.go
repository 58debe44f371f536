package crashmonkey

import (
	"fmt"
	"runtime"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/fsmake"
)

// Engine-comparison benchmarks: the product's incremental construction
// against the from-scratch reference (reference_test.go). Each runs both
// engines as "incremental" and "scratch" sub-benchmarks;
// scripts/bench_json.sh records them in BENCH_construct.json.

// constructWorkload is a seq-2-flavoured stream with four persistence
// points: the shape that separates incremental from from-scratch crash-state
// construction (a C-checkpoint sweep costs O(W) replayed writes with the
// rolling cursor versus O(C·W) from scratch).
var constructWorkload = `
mkdir /A
creat /A/foo
write /A/foo 0 16384
fsync /A/foo
link /A/foo /A/bar
fsync /A/bar
write /A/foo 16384 8192
fsync /A/foo
rename /A/foo /A/baz
sync
`

// BenchmarkCrashMonkeyConstructCrashState is phase 2: construct every
// checkpoint's crash state and fingerprint it (paper: ~20ms per crash
// state). Pruning is enabled so after the first sweep the oracle checks are
// all disk-tier hits — what remains in the loop is exactly construction plus
// fingerprinting, in both engines. The replayed-writes/state metric is
// metered, not estimated; EXPERIMENTS.md records incremental vs scratch.
func BenchmarkCrashMonkeyConstructCrashState(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "construct", constructWorkload)
	for _, mode := range []struct {
		name    string
		scratch bool
	}{{"incremental", false}, {"scratch", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var meter blockdev.BlockMeter
			mk := &Monkey{FS: fs, SkipWriteChecks: true, Meter: &meter, Prune: NewPruneCache()}
			testCheckpoint := mk.TestCheckpoint
			if mode.scratch {
				testCheckpoint = reference{mk}.TestCheckpoint
			}
			p, err := mk.ProfileWorkload(w)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			states := 0
			for i := 0; i < b.N; i++ {
				for cp := 1; cp <= p.Checkpoints(); cp++ {
					if _, err := testCheckpoint(p, cp); err != nil {
						b.Fatal(err)
					}
					states++
				}
			}
			b.StopTimer()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(meter.BlocksReplayed.Load())/float64(states), "replayed-writes/state")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
			b.ReportMetric(float64(p.Checkpoints()), "states/op")
		})
	}
}

// BenchmarkAblationReorderExploration measures the bounded-reordering sweep
// (every write prefix + the in-flight epoch with up to k writes dropped)
// that validates the core-mechanism assumption (§4.4 limitation 2), with
// and without disk-fingerprint deduplication: pruning is what makes the
// k >= 2 state spaces affordable.
func BenchmarkAblationReorderExploration(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "reorder", constructWorkload)
	for _, engine := range []struct {
		name    string
		scratch bool
	}{{"incremental", false}, {"scratch", true}} {
		for _, bound := range []int{1, 2} {
			for _, pruned := range []bool{false, true} {
				name := fmt.Sprintf("%s/k=%d/pruned=%t", engine.name, bound, pruned)
				b.Run(name, func(b *testing.B) {
					mk := &Monkey{FS: fs}
					explore := mk.ExploreReorder
					if engine.scratch {
						explore = reference{mk}.ExploreReorder
					}
					p, err := mk.ProfileWorkload(w)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					var report *ReorderReport
					for i := 0; i < b.N; i++ {
						if pruned {
							// A fresh cache per iteration: the steady-state hit
							// rate within one sweep is what is being measured.
							mk.Prune = NewPruneCache()
						}
						report, err = explore(p, bound)
						if err != nil {
							b.Fatal(err)
						}
						if !report.Clean() {
							b.Fatalf("core mechanism broken: %v", report.Broken)
						}
					}
					b.ReportMetric(float64(report.States), "reorder-states")
					b.ReportMetric(float64(report.Checked), "recoveries-run")
					b.ReportMetric(float64(report.ClassSkipped), "states-skipped")
					// Metered construction cost: the epoch-base cache makes
					// this O(delta) per state instead of O(history).
					b.ReportMetric(float64(report.ReplayedWrites)/float64(report.States), "replayed-writes/state")
				})
			}
		}
	}
}

// BenchmarkAblationFaultExploration measures the orthogonal fault axis —
// the torn / corrupt / misdirect iterators — per kind, with and without
// verdict deduplication, incremental vs from-scratch construction. Broken
// states are a metric here, not a failure: fault sweeps probe the design's
// fault envelope, which crash-consistency guarantees do not cover.
func BenchmarkAblationFaultExploration(b *testing.B) {
	fs, _ := fsmake.Fixed("logfs")
	w := mustParse(b, "faults", constructWorkload)
	kinds := []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt, blockdev.FaultMisdirect}
	for _, engine := range []struct {
		name    string
		scratch bool
	}{{"incremental", false}, {"scratch", true}} {
		for _, kind := range kinds {
			for _, pruned := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/pruned=%t", engine.name, kind, pruned)
				b.Run(name, func(b *testing.B) {
					mk := &Monkey{FS: fs}
					explore := mk.ExploreFaults
					if engine.scratch {
						explore = reference{mk}.ExploreFaults
					}
					p, err := mk.ProfileWorkload(w)
					if err != nil {
						b.Fatal(err)
					}
					model := blockdev.FaultModel{Kinds: []blockdev.FaultKind{kind}}
					b.ReportAllocs()
					b.ResetTimer()
					var report *FaultReport
					for i := 0; i < b.N; i++ {
						if pruned {
							mk.Prune = NewPruneCache()
						}
						report, err = explore(p, model)
						if err != nil {
							b.Fatal(err)
						}
					}
					kr := report.Kinds[0]
					b.ReportMetric(float64(kr.States), "fault-states")
					b.ReportMetric(float64(kr.Checked), "recoveries-run")
					b.ReportMetric(float64(kr.ClassSkipped), "states-skipped")
					b.ReportMetric(float64(len(kr.Broken)), "broken-states")
					b.ReportMetric(float64(kr.ReplayedWrites)/float64(kr.States), "replayed-writes/state")
				})
			}
		}
	}
}
