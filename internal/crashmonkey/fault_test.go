package crashmonkey

import (
	"reflect"
	"testing"

	"b3/internal/blockdev"
	"b3/internal/fs/diskfmt"
	"b3/internal/fs/f2fsim"
	"b3/internal/fs/fscqsim"
	"b3/internal/fs/journalfs"
)

// faultTestWorkload exercises multiple epochs, metadata and data writes, and
// both fsync and sync persistence points.
const faultTestWorkload = `
mkdir /A
creat /A/foo
write /A/foo 0 16384
fsync /A/foo
link /A/foo /A/bar
rename /A/foo /A/baz
sync
write /A/baz 4096 4096
fsync /A/baz
`

var allFaults = blockdev.FaultModel{
	Kinds: []blockdev.FaultKind{blockdev.FaultTorn, blockdev.FaultCorrupt, blockdev.FaultMisdirect},
}

// faultBackends returns a fresh fixed (bug-free) Monkey per backend; the
// constructor-per-call shape matters because sweeps that must not share a
// prune cache need independent Monkeys.
func faultBackends() []struct {
	name string
	mk   func() *Monkey
} {
	return []struct {
		name string
		mk   func() *Monkey
	}{
		{"logfs", func() *Monkey { return &Monkey{FS: logfsFixed()} }},
		{"journalfs", func() *Monkey { return &Monkey{FS: journalfs.New(journalfs.Options{BugOverride: map[string]bool{}})} }},
		{"f2fsim", func() *Monkey { return &Monkey{FS: f2fsim.New(f2fsim.Options{BugOverride: map[string]bool{}})} }},
		{"fscqsim", func() *Monkey { return &Monkey{FS: fscqsim.New(fscqsim.Options{BugOverride: map[string]bool{}})} }},
		{"diskfmt", func() *Monkey { return &Monkey{FS: diskfmt.NewFS(diskfmt.Options{})} }},
	}
}

// TestTornK0MatchesPrefix is the torn-degenerate soundness cross-check on
// every backend: at sector == BlockSize a torn sweep has no sub-block states
// left, so it must equal the reorder k=0 prefix sweep counter for counter —
// same states, same verdicts, same broken Descs.
func TestTornK0MatchesPrefix(t *testing.T) {
	for _, fs := range faultBackends() {
		mk := fs.mk()
		p, err := mk.ProfileWorkload(mustParse(t, "torn-k0", faultTestWorkload))
		if err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		torn, err := mk.ExploreFaults(p, blockdev.FaultModel{
			Kinds: []blockdev.FaultKind{blockdev.FaultTorn}, SectorSize: blockdev.BlockSize,
		})
		if err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		reorder, err := mk.ExploreReorder(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", fs.name, err)
		}
		kr := torn.Kinds[0]
		if kr.States != reorder.States || kr.Checked != reorder.Checked ||
			kr.Pruned != reorder.Pruned || kr.Mountable != reorder.Mountable ||
			kr.Repaired != reorder.Repaired || !reflect.DeepEqual(kr.Broken, reorder.Broken) {
			t.Fatalf("%s: torn@blocksize %+v != reorder k=0 {States:%d Checked:%d Pruned:%d Mountable:%d Repaired:%d Broken:%v}",
				fs.name, kr, reorder.States, reorder.Checked, reorder.Pruned,
				reorder.Mountable, reorder.Repaired, reorder.Broken)
		}
		if kr.States < 10 {
			t.Fatalf("%s: only %d torn states explored", fs.name, kr.States)
		}
	}
}

// TestFaultExplorationIsDeterministic runs the full fault model twice per
// backend and cross-checks the incremental engine against the from-scratch
// engine: identical per-kind reports both times, identical verdicts across
// engines, and with a prune cache identical verdicts again with every state
// accounted checked-or-pruned.
func TestFaultExplorationIsDeterministic(t *testing.T) {
	for _, fs := range faultBackends() {
		run := func(scratch, prune bool) *FaultReport {
			mk := fs.mk()
			if prune {
				mk.Prune = NewPruneCache()
			}
			p, err := mk.ProfileWorkload(mustParse(t, "faults", faultTestWorkload))
			if err != nil {
				t.Fatalf("%s: %v", fs.name, err)
			}
			explore := mk.ExploreFaults
			if scratch {
				explore = reference{mk}.ExploreFaults
			}
			report, err := explore(p, allFaults)
			if err != nil {
				t.Fatalf("%s: %v", fs.name, err)
			}
			return report
		}
		base := run(false, false)
		if len(base.Kinds) != 3 || base.SectorSize != 512 {
			t.Fatalf("%s: unexpected report shape %+v", fs.name, base)
		}
		for _, kr := range base.Kinds {
			if kr.States < 8 {
				t.Fatalf("%s/%s: only %d states explored", fs.name, kr.Kind, kr.States)
			}
			if kr.Mountable+kr.Repaired+len(kr.Broken) != kr.States {
				t.Fatalf("%s/%s: verdict accounting broken: %d+%d+%d != %d",
					fs.name, kr.Kind, kr.Mountable, kr.Repaired, len(kr.Broken), kr.States)
			}
			t.Logf("%s/%s: %d states, %d mountable, %d repaired, %d broken",
				fs.name, kr.Kind, kr.States, kr.Mountable, kr.Repaired, len(kr.Broken))
		}
		if again := run(false, false); !reflect.DeepEqual(base, again) {
			t.Fatalf("%s: enumeration not deterministic:\n%+v\n%+v", fs.name, base, again)
		}
		scratch := run(true, false)
		for i, kr := range scratch.Kinds {
			want := base.Kinds[i]
			// Construction cost differs by design (the scratch engine
			// re-replays prior epochs per state); every verdict must not.
			if kr.ReplayedWrites < want.ReplayedWrites {
				t.Fatalf("%s/%s: scratch engine replayed fewer writes than incremental (%d vs %d)",
					fs.name, kr.Kind, kr.ReplayedWrites, want.ReplayedWrites)
			}
			kr.ReplayedWrites = want.ReplayedWrites
			if !reflect.DeepEqual(kr, want) {
				t.Fatalf("%s/%s: incremental vs scratch engines disagree:\n%+v\n%+v",
					fs.name, kr.Kind, want, kr)
			}
		}
		pruned := run(false, true)
		prunedChecked, baseChecked := 0, 0
		for i, kr := range pruned.Kinds {
			want := base.Kinds[i]
			if kr.States != want.States || kr.Checked+kr.Pruned+kr.ClassSkipped != kr.States ||
				kr.Mountable != want.Mountable || kr.Repaired != want.Repaired ||
				!reflect.DeepEqual(kr.Broken, want.Broken) {
				t.Fatalf("%s/%s: pruned sweep diverges: %+v vs %+v", fs.name, kr.Kind, kr, want)
			}
			if kr.Checked > want.Checked {
				t.Fatalf("%s/%s: pruned sweep ran more recoveries (%d vs %d)",
					fs.name, kr.Kind, kr.Checked, want.Checked)
			}
			prunedChecked += kr.Checked
			baseChecked += want.Checked
		}
		// Byte-identical states recur (every epoch's pfx0 equals the prior
		// epoch's full state, torn tails of zero blocks collide, ...), so
		// the cache must save recoveries somewhere in the sweep.
		if prunedChecked >= baseChecked {
			t.Fatalf("%s: prune cache saved no recoveries (%d vs %d)",
				fs.name, prunedChecked, baseChecked)
		}
	}
}

// TestFaultReferenceBackendTolerates is the false-positive gate against the
// diskfmt reference design. Dual generation-stamped superblocks whose
// checksums reject torn or corrupted slots, plus images written only to the
// inactive region before the flip, provably tolerate torn and corrupt
// faults, so any broken state from those sweeps is a harness bug.
//
// Misdirect is the documented genuine find: the superblock write for an odd
// generation targets block 1 (slot gen%2), and misdirected one block to the
// right it lands on block 2 — the first block of the even image region,
// clobbering the committed previous generation. The newest superblock then
// points at a corrupted image while the other slot's generation was already
// overwritten by the in-progress checkpoint's image writes, so neither
// mounts. For this fixed workload that is exactly one state (the sync
// checkpoint, gen 3), pinned here as the expected-finding group.
func TestFaultReferenceBackendTolerates(t *testing.T) {
	mk := &Monkey{FS: diskfmt.NewFS(diskfmt.Options{})}
	mk.Prune = NewPruneCache()
	p, err := mk.ProfileWorkload(mustParse(t, "ref-gate", faultTestWorkload))
	if err != nil {
		t.Fatal(err)
	}
	report, err := mk.ExploreFaults(p, allFaults)
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range report.Kinds {
		if kr.States == 0 {
			t.Fatalf("%s: sweep explored no states", kr.Kind)
		}
		if kr.Kind == blockdev.FaultMisdirect {
			if !reflect.DeepEqual(kr.Broken, []string{"e3-w0-mis"}) {
				t.Fatalf("misdirect finding drifted from the documented group: %v", kr.Broken)
			}
			continue
		}
		if len(kr.Broken) > 0 {
			t.Fatalf("reference backend must tolerate %s faults; broken states %v",
				kr.Kind, kr.Broken)
		}
	}
}
