package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"b3/internal/report"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100, cpu: 80},
		{parent: 0, start: 10, end: 40, cpu: 20},   // overlaps the next child
		{parent: 0, start: 30, end: 60, cpu: 30},   // union with the first: [10, 60)
		{parent: 0, start: 90, end: 120, cpu: 5},   // sticks out: only [90, 100) counts
		{parent: 2, start: 35, end: 50, cpu: 10},   // grandchild: charged to span 2 only
		{parent: -1, start: 200, end: 210, cpu: 3}, // no children
	}
	wall, cpu := selfTimes(spans)
	wantWall := []int64{40, 30, 15, 30, 15, 10}
	wantCPU := []int64{25, 20, 20, 5, 10, 3}
	for i := range spans {
		if wall[i] != wantWall[i] || cpu[i] != wantCPU[i] {
			t.Errorf("span %d: self wall %d cpu %d, want %d %d", i, wall[i], cpu[i], wantWall[i], wantCPU[i])
		}
	}
}

func TestSelfCPUNeverNegative(t *testing.T) {
	// A synthetic child whose wall-time estimate exceeds the CPU its parent
	// measured must not drive the parent's CPU self time below zero.
	_, cpu := selfTimes([]span{
		{parent: -1, start: 0, end: 100, cpu: 10},
		{parent: 0, start: 0, end: 50, cpu: 50},
	})
	if cpu[0] != 0 {
		t.Fatalf("parent CPU self time %d, want 0", cpu[0])
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(time.Now())
	outer := r.begin(lWorkload, 2, 7)
	inner := r.child(lProfile)
	r.add(lConstruct, 0, 0)
	r.end(inner)
	r.end(outer)
	if r.spans[inner].parent != outer || r.spans[2].parent != inner {
		t.Fatalf("parents: %+v", r.spans)
	}
	if s := r.spans[2]; s.row != 2 || s.seq != 7 {
		t.Fatalf("child did not inherit the trace id: %+v", s)
	}
	if len(r.open) != 0 || len(r.cpu0) != 0 {
		t.Fatalf("spans left open: %v", r.open)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0 = no tail
	}{
		{0, 0}, {19, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		p, ok := tailPercentile(tc.n)
		if (tc.want == 0) == ok || p != tc.want {
			t.Errorf("n=%d: tail p%v (ok %t), want p%v", tc.n, p, ok, tc.want)
		}
		if ok && tc.n-nearestRank(p, tc.n) < 10 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.n != 100 || s.median != 50.5 || s.tailPct != 90 || s.tail != 90 {
		t.Fatalf("summary %+v, want n=100 median 50.5 p90 90", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3 samples = %v", m)
	}
	if got := summarize([]float64{1, 2}); got.tailPct != 0 {
		t.Fatalf("2 samples reported a tail: %+v", got)
	}
	if got := spread([]float64{4, 9, 1}); got != 8 {
		t.Fatalf("spread = %v", got)
	}
}

func TestSeedPicksResidueClass(t *testing.T) {
	s := spec{shards: 4}
	for seed, want := range map[int64]int{0: 0, 1: 1, 5: 1, 7: 3, -1: 3, -4: 0} {
		if got := s.class(seed); got != want {
			t.Errorf("seed %d: class %d, want %d", seed, got, want)
		}
	}
	if got := (spec{}).class(12); got != 0 {
		t.Errorf("unsharded spec: class %d, want 0", got)
	}
}

// TestClassesPartitionSampledSpace checks the sampled workload's filter:
// the residue classes are disjoint and together test exactly the sampled
// subsequence below the cap.
func TestClassesPartitionSampledSpace(t *testing.T) {
	s, err := lookupSpec("seq2-matrix-sparse")
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int64]int{}
	for class := 0; class < s.shards; class++ {
		m := &mirror{s: s, class: class}
		for seq := int64(1); ; seq++ {
			test, stop := m.decide(seq)
			if stop {
				if seq != s.max+1 {
					t.Fatalf("class %d stopped at seq %d, cap %d", class, seq, s.max)
				}
				break
			}
			if !test {
				continue
			}
			if prev, ok := owner[seq]; ok {
				t.Fatalf("seq %d tested by classes %d and %d", seq, prev, class)
			}
			owner[seq] = class
		}
	}
	if want := s.max / s.sample; int64(len(owner)) != want {
		t.Fatalf("classes test %d workloads together, want %d", len(owner), want)
	}
	for seq := range owner {
		if seq%s.sample != 0 {
			t.Fatalf("seq %d is not a sampled workload", seq)
		}
	}
}

func TestPinsCoverEveryClass(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range workloads {
		if got := len(p[s.name]); got != s.shards {
			t.Errorf("%s: %d pinned classes, want %d", s.name, got, s.shards)
		}
		for class, rows := range p[s.name] {
			for _, r := range rows {
				if r.FS == "diskfmt" && r.Failed != 0 {
					t.Errorf("%s class %d pins %d failing diskfmt workloads", s.name, class, r.Failed)
				}
			}
		}
	}
}

func TestWorkloadsToLastGroup(t *testing.T) {
	rep := func(id string) *report.Report { return &report.Report{WorkloadID: id} }
	groups := []*report.Group{
		{Reports: []*report.Report{rep("ace-40"), rep("ace-10")}}, // first seen at 10
		{Reports: []*report.Report{rep("ace-30")}},                // first seen at 30: the last group
	}
	tested := []int64{50, 10, 20, 30, 40}
	if got := workloadsToLastGroup(groups, tested); got != 3 {
		t.Fatalf("workloads to last group = %d, want 3 (10, 20, 30)", got)
	}
	if got := workloadsToLastGroup(nil, tested); got != 0 {
		t.Fatalf("no groups: %d, want 0", got)
	}
	if got := seqOf("kv-123"); got != 123 {
		t.Fatalf("seqOf = %d", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s printed",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndMetrics)
	check("per_layer", bj.PerLayer, perLayerMetrics)
}

// TestSmokeEachWorkloadShape runs a shrunken campaign of every workload
// shape through the product and the traced mirror, and checks the parity
// gate and the layer metrics on it.
func TestSmokeEachWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	tiny := map[string]func(*spec){
		"seq2-matrix-sparse":    func(s *spec) { s.max = 2000 },
		"kv-seq3-sweeps-corpus": func(s *spec) { s.shards = 500 },
	}
	work := t.TempDir()
	workers := runtime.GOMAXPROCS(0)
	for _, s := range workloads {
		tiny[s.name](&s)
		t.Run(s.name, func(t *testing.T) {
			st, _, err := prepare(s, work)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runProduct(s, 1, workers, st)
			if err != nil {
				t.Fatal(err)
			}
			st2, _, err := prepare(s, work)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(s, 1, workers, st2)
			if err != nil {
				t.Fatal(err)
			}
			if err := parity(rep.totals, tr.totals); err != nil {
				t.Fatal(err)
			}
			tested, _, states := sumTotals(rep.totals)
			if tested == 0 || states == 0 {
				t.Fatalf("tested %d workloads, %d states", tested, states)
			}
			for _, r := range rep.totals {
				if r.FS == "diskfmt" && r.Failed != 0 {
					t.Fatalf("diskfmt: %d failing", r.Failed)
				}
			}
			m := layerMetrics(tr, s.kv())
			if m["trace.spans"] == 0 || m["profile.s"] <= 0 || m["recover.mounts"] == 0 {
				t.Fatalf("traced run recorded no layer work: %v", m)
			}
			if s.corpus && (m["corpus.records"] != float64(tested) || m["corpus.bytes"] == 0) {
				t.Fatalf("corpus: %v records, %v bytes for %d tested workloads",
					m["corpus.records"], m["corpus.bytes"], tested)
			}
			if s.reorder > 0 && m["reorder.states"] == 0 {
				t.Fatalf("reorder sweep recorded no states")
			}
			if s.faults != "" && m["fault.states"] == 0 {
				t.Fatalf("fault sweep recorded no states")
			}
			if err := writeSpans(work+"/spans.jsonl.gz", tr.recs, tr.names()); err != nil {
				t.Fatal(err)
			}
			for _, st := range []*setup{st, st2} {
				if err := st.cleanup(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
