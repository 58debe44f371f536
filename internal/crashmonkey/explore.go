package crashmonkey

import (
	"fmt"
	"time"

	"b3/internal/blockdev"
)

// The crash-state exploration loop (§5.1): construct a crash state, recover
// it, check it against an oracle. Every sweep of both workload families —
// reorder and fault spaces, file-level and KV oracles — runs through sweep,
// and both checkpoint tests run through judgeCheckpoint. The loop owns the
// per-state sequence (class-prune hoist, single-flight disk-tier lookup,
// judge, store, tally); a space picks the states and a judge supplies the
// oracle, so the families differ only in their judge and their counters.
// The from-scratch reference the tests compare against builds each state
// its own way but judges it through the same per-state step (sweepState,
// judgeState).

// space selects one crash-state space of a profiled run: the
// bounded-reordering states at bound k, or one fault kind's states at
// sector granularity.
type space struct {
	k      int
	fault  bool
	kind   blockdev.FaultKind
	sector int
}

// faultSpace is the fault-injection space of one kind under model.
func faultSpace(kind blockdev.FaultKind, model blockdev.FaultModel) space {
	return space{fault: true, kind: kind, sector: model.Sector()}
}

// judge is the oracle half of a sweep.
type judge struct {
	// salt returns the verdict-cache oracle salt for a state in flight
	// during epoch (-1 = the empty state).
	salt func(epoch int) uint64
	// recover renders the verdict of one constructed state. It is
	// cacheable: a deterministic function of the device contents and the
	// salt's inputs.
	recover func(crash blockdev.Device, epoch int) (*cachedVerdict, error)
	// tally folds one state's verdict into the caller's report.
	tally func(epoch int, desc string, v *cachedVerdict)
}

// mountJudge judges recoverability: a state must mount, at worst after
// fsck. salt is the sweep's oracle salt; tally folds verdicts into a report.
func (mk *Monkey) mountJudge(salt uint64, tally func(epoch int, desc string, v *cachedVerdict)) judge {
	return judge{
		salt: func(int) uint64 { return salt },
		recover: func(crash blockdev.Device, _ int) (*cachedVerdict, error) {
			return mk.recoverReorderState(crash)
		},
		tally: tally,
	}
}

// sweepStats is the accounting of one sweep: every enumerated state is
// either class-skipped (never constructed), pruned (constructed, verdict
// reused from the disk tier), or checked.
type sweepStats struct {
	states, checked, pruned, classSkipped int
	replayed                              int64
}

func (s sweepStats) intoReorder(r *ReorderReport) {
	r.States, r.Checked, r.Pruned, r.ClassSkipped = s.states, s.checked, s.pruned, s.classSkipped
	r.ReplayedWrites = s.replayed
}

func (s sweepStats) intoFault(r *FaultKindReport) {
	r.States, r.Checked, r.Pruned, r.ClassSkipped = s.states, s.checked, s.pruned, s.classSkipped
	r.ReplayedWrites = s.replayed
}

// sweep explores one crash-state space of p under judge j. States are built
// incrementally by the blockdev enumerators; with a prune cache, a state
// whose predicted fingerprint already has a verdict is tallied with that
// verdict and its own descriptor without being built, so it still counts
// toward States.
func (mk *Monkey) sweep(p *Profile, sp space, j judge) (sweepStats, error) {
	var s sweepStats
	var judgeErr error
	visit := func(epoch int, desc string, crash *blockdev.Snapshot) bool {
		judgeErr = mk.sweepState(&s, j, epoch, desc, crash)
		return judgeErr == nil
	}
	// seen is the class-prune hoist.
	var seen func(epoch int, desc string, fp uint64) bool
	if mk.Prune != nil {
		seen = func(epoch int, desc string, fp uint64) bool {
			v, ok := mk.Prune.classify(stateKey{state: fp, oracle: j.salt(epoch)})
			if ok {
				s.states++
				s.classSkipped++
				j.tally(epoch, desc, v)
			}
			return ok
		}
	}

	log := p.rec.Log()
	var stats blockdev.EnumStats
	var err error
	if sp.fault {
		var opts blockdev.FaultEnumOpts
		if seen != nil {
			opts.Seen = func(st blockdev.FaultState, fp uint64) bool { return seen(st.Epoch, st.Desc, fp) }
		}
		stats, err = blockdev.ForEachFaultState(p.base, log, sp.kind, sp.sector, opts, mk.Meter,
			func(st blockdev.FaultState, crash *blockdev.Snapshot) bool { return visit(st.Epoch, st.Desc, crash) })
	} else {
		var opts blockdev.ReorderEnumOpts
		if seen != nil {
			opts.Seen = func(st blockdev.ReorderState, fp uint64) bool { return seen(st.Epoch, st.Desc, fp) }
		}
		stats, err = blockdev.ForEachReorderState(p.base, log, sp.k, opts, mk.Meter,
			func(st blockdev.ReorderState, crash *blockdev.Snapshot) bool { return visit(st.Epoch, st.Desc, crash) })
	}
	s.replayed = stats.Replayed
	if judgeErr != nil {
		return s, judgeErr
	}
	return s, err
}

// sweepState is the per-state step of a sweep: judge one constructed state
// of the epoch in flight and tally its verdict into s.
func (mk *Monkey) sweepState(s *sweepStats, j judge, epoch int, desc string, crash *blockdev.Snapshot) error {
	s.states++
	v, _, prunedBy, err := mk.judgeState(crash, j.salt(epoch),
		func(crash *blockdev.Snapshot) (*cachedVerdict, string, error) {
			s.checked++
			v, err := j.recover(crash, epoch)
			return v, "", err
		})
	if err != nil {
		return err
	}
	if prunedBy != "" {
		s.pruned++
	}
	j.tally(epoch, desc, v)
	return nil
}

// checkFunc renders a fresh verdict of one constructed crash state and
// reports "tree" when it reused a tree-tier verdict instead.
type checkFunc func(crash *blockdev.Snapshot) (*cachedVerdict, string, error)

// judgeState renders the verdict of one constructed crash state: the
// single-flight disk-tier lookup, then on a miss a fresh verdict from check
// and its store (or, on error, the abandoned claim). It returns the state's
// disk fingerprint (0 without a prune cache) and prunedBy: "disk" for a
// disk-tier hit, else what check reported ("tree" when it reused a
// tree-tier verdict).
func (mk *Monkey) judgeState(crash *blockdev.Snapshot, oracle uint64, check checkFunc) (*cachedVerdict, uint64, string, error) {
	if mk.Prune == nil {
		v, prunedBy, err := check(crash)
		return v, 0, prunedBy, err
	}
	k := stateKey{state: crash.Fingerprint(), oracle: oracle}
	if v, ok := mk.Prune.lookupDisk(k); ok {
		return v, k.state, "disk", nil
	}
	v, prunedBy, err := check(crash)
	if err != nil {
		mk.Prune.abandonDisk(k)
		return nil, k.state, "", err
	}
	if prunedBy == "" {
		mk.Prune.misses.Add(1)
	}
	mk.Prune.storeDisk(k, v)
	return v, k.state, prunedBy, nil
}

// checkpointVerdict is the family-neutral outcome of one checkpoint test.
type checkpointVerdict struct {
	v                   *cachedVerdict
	replayed            int64
	replayDur, checkDur time.Duration
	// stateHash is the state's disk fingerprint (set only with pruning).
	stateHash uint64
	// prunedBy names the cache tier the verdict came from ("disk" or
	// "tree"); empty when the state was fully checked.
	prunedBy string
}

// judgeCheckpoint is the checkpoint path of both families: the class-prune
// hoist inside Profile.state, then judgeState on the constructed fork.
// oracle is the checkpoint's full oracle salt.
func (mk *Monkey) judgeCheckpoint(p *Profile, cp int, oracle uint64, check checkFunc) (checkpointVerdict, error) {
	var out checkpointVerdict
	var classified func(fp uint64) bool
	if mk.Prune != nil {
		// The cursor's fingerprint is O(1) after the seek, so a state whose
		// class was already judged is never forked at all.
		classified = func(fp uint64) bool {
			out.stateHash = fp
			v, ok := mk.Prune.classify(stateKey{state: fp, oracle: oracle})
			out.v = v
			return ok
		}
	}

	start := time.Now()
	crash, replayed, err := p.state(cp, mk.Meter, classified)
	if err != nil {
		return out, fmt.Errorf("crashmonkey: replay: %w", err)
	}
	out.replayed, out.replayDur = replayed, time.Since(start)
	if crash == nil {
		// The hoisted lookup hit: reported as a disk-tier prune — the
		// verdict source is the same cache line; only construction was saved.
		out.prunedBy = "disk"
		return out, nil
	}
	// Forks hold only recovery/checker writes; hand their buffers back to
	// the pool once the verdict is composed.
	defer crash.Release()
	out.v, out.stateHash, out.prunedBy, err = mk.judgeState(crash, oracle,
		func(crash *blockdev.Snapshot) (*cachedVerdict, string, error) {
			start := time.Now()
			defer func() { out.checkDur = time.Since(start) }()
			return check(crash)
		})
	return out, err
}
