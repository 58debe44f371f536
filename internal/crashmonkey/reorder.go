package crashmonkey

import (
	"errors"
	"fmt"

	"b3/internal/blockdev"
	"b3/internal/filesys"
)

// Bounded-reordering crash exploration: the extension the paper leaves open
// (§4.4 limitation 2: "it does not simulate a crash in the middle of a
// file-system operation and it does not re-order IO requests ... the
// implicit assumption is that the core crash-consistency mechanism, such as
// journaling or copy-on-write, is working correctly").
//
// The recorded IO stream is partitioned into epochs at write barriers
// (blockdev.Epochs — both flushes and persistence checkpoints close an
// epoch). A crash state is the fully-applied barriered prefix plus either an
// in-order prefix of the in-flight epoch or the full epoch with at most k
// writes dropped; k = 1 reproduces the legacy drop-one-write sweep, larger
// bounds open new reordered states.
//
// B3's correctness criteria are undefined mid-operation, so these states are
// not checked against the oracle. What *is* checked is exactly the
// assumption B3 rests on: from every such state the file system must recover
// to a mountable image (or at worst be repairable by fsck). ReorderReport
// quantifies that, and the Monkey's PruneCache deduplicates byte-identical
// states (the same barriered prefix recurs across the whole sweep, and
// dropping an epoch's last write equals the prefix one shorter), which is
// what makes k >= 2 sweeps affordable.

// reorderOracleSalt keys reorder verdicts in the shared disk-tier prune
// cache. Reorder states are judged without an oracle, so the constant stands
// in for the expectation fingerprint and keeps the entries disjoint from the
// oracle-checked ones.
const reorderOracleSalt uint64 = 0x4233526571756572 // "B3Requer"

// ReorderEpoch is the per-epoch accounting of one sweep.
type ReorderEpoch struct {
	// Writes is the number of in-flight writes the epoch holds.
	Writes int
	// States is the number of crash states constructed with this epoch in
	// flight (the final fully-replayed state counts toward the last epoch).
	States int
	// Broken counts this epoch's states that neither mounted nor repaired.
	Broken int
}

// ReorderReport summarises a bounded-reordering crash sweep of one workload.
type ReorderReport struct {
	// Bound is the reorder bound k the sweep ran with.
	Bound int
	// States is the number of crash states constructed.
	States int
	// Checked counts states whose recovery actually ran; Pruned counts
	// states whose verdict was reused from the prune cache (byte-identical
	// disk contents already judged) after construction.
	Checked int
	Pruned  int
	// ClassSkipped counts states never constructed at all: the enumerator's
	// O(1) delta fingerprint matched an already-judged class, and the cached
	// verdict was tallied directly.
	ClassSkipped int
	// CommuteSkipped is always zero: commutativity pruning was removed after
	// it measured zero yield on every backend. The field is kept for the
	// frozen benchmark module and the corpus record format.
	CommuteSkipped int
	// Mountable counts states that recovered without help; Repaired counts
	// states that needed fsck and then mounted.
	Mountable int
	Repaired  int
	// Broken lists states that neither mounted nor repaired: violations of
	// the core-mechanism assumption.
	Broken []string
	// ReplayedWrites is the metered number of recorded writes replayed to
	// construct the sweep's states: each epoch once per sweep plus the
	// in-flight deltas.
	ReplayedWrites int64
	// PerEpoch is the accounting per IO epoch, in stream order.
	PerEpoch []ReorderEpoch
}

// Clean reports whether every explored state recovered or was repaired.
func (r *ReorderReport) Clean() bool { return len(r.Broken) == 0 }

// ExploreReorder sweeps the bounded-reordering crash states of a profiled
// run at bound k (k = 0 explores only the in-order write prefixes). When the
// Monkey has a PruneCache, byte-identical states are judged once and the
// verdict is reused — identical Broken verdicts, strictly fewer recoveries
// run.
func (mk *Monkey) ExploreReorder(p *Profile, k int) (*ReorderReport, error) {
	report, err := newReorderReport(p, k)
	if err != nil {
		return nil, err
	}
	s, err := mk.sweep(p, space{k: k}, mk.mountJudge(mk.pruneSalt()^reorderOracleSalt, report.tally))
	if err != nil {
		return nil, err
	}
	s.intoReorder(report)
	return report, nil
}

// newReorderReport returns the empty report of a bound-k sweep over p, with
// one PerEpoch row per IO epoch.
func newReorderReport(p *Profile, k int) (*ReorderReport, error) {
	if k < 0 {
		return nil, fmt.Errorf("crashmonkey: negative reorder bound %d", k)
	}
	epochs := blockdev.Epochs(p.rec.Log())
	report := &ReorderReport{Bound: k, PerEpoch: make([]ReorderEpoch, len(epochs))}
	for i, ep := range epochs {
		report.PerEpoch[i].Writes = len(ep.Writes)
	}
	return report, nil
}

// recoverReorderState mounts the crash state, falling back to fsck plus a
// remount. The verdict is cacheable: recovery is a deterministic function of
// the device contents and the file-system configuration.
func (mk *Monkey) recoverReorderState(crash blockdev.Device) (*cachedVerdict, error) {
	if _, err := mk.FS.Mount(crash); err == nil {
		return &cachedVerdict{mountable: true}, nil
	} else if !errors.Is(err, filesys.ErrCorrupted) {
		return nil, err
	}
	v := &cachedVerdict{fsckRun: true}
	if repaired, err := mk.FS.Fsck(crash); err == nil && repaired {
		if _, err := mk.FS.Mount(crash); err == nil {
			v.fsckRepaired = true
		}
	}
	return v, nil
}

// tally folds one state verdict into the report.
func (r *ReorderReport) tally(epoch int, desc string, v *cachedVerdict) {
	inEpoch := epoch >= 0 && epoch < len(r.PerEpoch)
	if inEpoch {
		r.PerEpoch[epoch].States++
	}
	switch {
	case v.mountable:
		r.Mountable++
	case v.fsckRepaired:
		r.Repaired++
	default:
		r.Broken = append(r.Broken, desc)
		if inEpoch {
			r.PerEpoch[epoch].Broken++
		}
	}
}
