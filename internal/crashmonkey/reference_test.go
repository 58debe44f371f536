package crashmonkey

import (
	"fmt"

	"b3/internal/blockdev"
)

// The from-scratch reference engine the cross-checks compare the product's
// incremental engine against. It builds every crash state the way §5.1
// describes — a fresh snapshot of the base image plus a full replay of the
// recorded IO (blockdev.ReplayToCheckpoint, ApplyReorderState,
// ApplyFaultState) — and never class-prunes, then judges each state through
// the very per-state step the product uses (judgeState, sweepState). Equal
// reports therefore mean the incremental construction and its O(1)
// fingerprints agree with the independent one, state for state, which is
// what makes verdict reuse by fingerprint sound.

// reference drives mk's oracles, prune cache and meter through
// from-scratch construction.
type reference struct{ mk *Monkey }

// judgeCheckpoint is Monkey.judgeCheckpoint with a full log-prefix replay
// onto a fresh snapshot in place of the rolling cursor and its class hoist.
func (r reference) judgeCheckpoint(p *Profile, cp int, oracle uint64, check checkFunc) (checkpointVerdict, error) {
	var out checkpointVerdict
	crash := blockdev.NewSnapshot(p.base)
	crash.SetMeter(r.mk.Meter)
	n, err := blockdev.ReplayToCheckpoint(crash, p.rec.Log(), cp)
	if err != nil {
		return out, err
	}
	if r.mk.Meter != nil {
		r.mk.Meter.BlocksReplayed.Add(n)
	}
	out.replayed = n
	out.v, out.stateHash, out.prunedBy, err = r.mk.judgeState(crash, oracle, check)
	return out, err
}

// TestCheckpoint is the reference twin of Monkey.TestCheckpoint.
func (r reference) TestCheckpoint(p *Profile, cp int) (*Result, error) {
	oracle, check, err := r.mk.checkpointCheck(p, cp)
	if err != nil {
		return nil, err
	}
	cv, err := r.judgeCheckpoint(p, cp, oracle, check)
	if err != nil {
		return nil, err
	}
	return r.mk.result(p, cp, cv), nil
}

// TestKVCheckpoint is the reference twin of Monkey.TestKVCheckpoint.
func (r reference) TestKVCheckpoint(kp *KVProfile, cp int) (*KVResult, error) {
	oracle, check, err := r.mk.kvCheckpointCheck(kp, cp)
	if err != nil {
		return nil, err
	}
	cv, err := r.judgeCheckpoint(kp.prof, cp, oracle, check)
	if err != nil {
		return nil, err
	}
	return r.mk.kvResult(kp, cp, cv), nil
}

// sweep is Monkey.sweep with every state rebuilt from scratch: the single
// enumerator supplies the states, each is applied onto a fresh snapshot,
// and sweepState judges the rebuild. The enumerator's own fork must
// fingerprint like the rebuild — on real file-system logs, every state,
// with no class skip to hide one — or the sweep fails. ReplayedWrites
// counts what the rebuilds replay: every prior epoch plus the state's
// in-flight writes.
func (r reference) sweep(p *Profile, sp space, j judge) (sweepStats, error) {
	var s sweepStats
	log := p.rec.Log()
	epochs := blockdev.Epochs(log)
	var judgeErr error
	build := func(epoch int, desc string, inFlight int64, fork *blockdev.Snapshot, apply func(blockdev.Device) error) bool {
		crash := blockdev.NewSnapshot(p.base)
		crash.SetMeter(r.mk.Meter)
		if judgeErr = apply(crash); judgeErr != nil {
			return false
		}
		if got, want := fork.Fingerprint(), crash.Fingerprint(); got != want {
			judgeErr = fmt.Errorf("reference: state %s: enumerator fork fingerprints %016x, scratch build %016x", desc, got, want)
			return false
		}
		for e := 0; e < epoch && e < len(epochs); e++ {
			s.replayed += int64(len(epochs[e].Writes))
		}
		s.replayed += inFlight
		judgeErr = r.mk.sweepState(&s, j, epoch, desc, crash)
		return judgeErr == nil
	}
	var err error
	if sp.fault {
		_, err = blockdev.ForEachFaultState(p.base, log, sp.kind, sp.sector, blockdev.FaultEnumOpts{}, nil,
			func(st blockdev.FaultState, fork *blockdev.Snapshot) bool {
				inFlight := int64(st.Applied)
				if st.Write >= 0 && st.Kind != blockdev.FaultMisdirect {
					inFlight++ // the torn or corrupting write itself
				}
				return build(st.Epoch, st.Desc, inFlight, fork, func(dst blockdev.Device) error {
					return blockdev.ApplyFaultState(dst, log, st, sp.sector)
				})
			})
	} else {
		_, err = blockdev.ForEachReorderState(p.base, log, sp.k, blockdev.ReorderEnumOpts{}, nil,
			func(st blockdev.ReorderState, fork *blockdev.Snapshot) bool {
				return build(st.Epoch, st.Desc, int64(st.Applied-len(st.Dropped)), fork, func(dst blockdev.Device) error {
					return blockdev.ApplyReorderState(dst, log, st)
				})
			})
	}
	if r.mk.Meter != nil {
		r.mk.Meter.BlocksReplayed.Add(s.replayed)
	}
	if judgeErr != nil {
		return s, judgeErr
	}
	return s, err
}

// ExploreReorder is the reference twin of Monkey.ExploreReorder.
func (r reference) ExploreReorder(p *Profile, k int) (*ReorderReport, error) {
	report, err := newReorderReport(p, k)
	if err != nil {
		return nil, err
	}
	s, err := r.sweep(p, space{k: k}, r.mk.mountJudge(r.mk.pruneSalt()^reorderOracleSalt, report.tally))
	if err != nil {
		return nil, err
	}
	s.intoReorder(report)
	return report, nil
}

// ExploreFaults is the reference twin of Monkey.ExploreFaults.
func (r reference) ExploreFaults(p *Profile, model blockdev.FaultModel) (*FaultReport, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	report := &FaultReport{SectorSize: model.Sector()}
	for _, kind := range model.Kinds {
		kr := FaultKindReport{Kind: kind}
		s, err := r.sweep(p, faultSpace(kind, model), r.mk.mountJudge(r.mk.pruneSalt()^faultOracleSalt(kind), kr.tally))
		if err != nil {
			return nil, fmt.Errorf("crashmonkey: %s sweep: %w", kind, err)
		}
		s.intoFault(&kr)
		report.Kinds = append(report.Kinds, kr)
	}
	return report, nil
}

// ExploreKVReorder is the reference twin of Monkey.ExploreKVReorder.
func (r reference) ExploreKVReorder(kp *KVProfile, k int) (*KVReorderReport, error) {
	rr, err := newReorderReport(kp.prof, k)
	if err != nil {
		return nil, err
	}
	report := &KVReorderReport{ReorderReport: *rr}
	s, err := r.sweep(kp.prof, space{k: k},
		r.mk.kvJudge(kp, r.mk.pruneSalt()^reorderOracleSalt, report.tally, &report.Classes, &report.Examples))
	if err != nil {
		return nil, err
	}
	s.intoReorder(&report.ReorderReport)
	return report, nil
}
