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

// sweep explores one crash-state space of p under judge j. The default
// engine constructs states incrementally through the pruned enumerators,
// tallying a state whose predicted fingerprint already has a verdict
// without building it; Monkey.ScratchStates selects the reference engine,
// which builds every state on a fresh snapshot and never class-prunes.
// Skipped states still count toward States and are tallied with their own
// descriptor, so a report is identical in every mode.
func (mk *Monkey) sweep(p *Profile, sp space, j judge) (sweepStats, error) {
	var s sweepStats
	key := func(epoch int, fp uint64) stateKey {
		return stateKey{state: fp, oracle: j.salt(epoch)}
	}
	// seen is the class-prune hoist.
	seen := func(epoch int, desc string, fp uint64) bool {
		v, ok := mk.Prune.classify(key(epoch, fp))
		if ok {
			s.states++
			s.classSkipped++
			j.tally(epoch, desc, v)
		}
		return ok
	}
	// visit judges one constructed state: disk-tier lookup, judge, store,
	// tally. A failure stops the sweep and is returned.
	var judgeErr error
	visit := func(epoch int, desc string, crash *blockdev.Snapshot) bool {
		s.states++
		var k stateKey
		if mk.Prune != nil {
			k = key(epoch, crash.Fingerprint())
			if v, ok := mk.Prune.lookupDisk(k); ok {
				s.pruned++
				j.tally(epoch, desc, v)
				return true
			}
		}
		s.checked++
		v, err := j.recover(crash, epoch)
		if err != nil {
			if mk.Prune != nil {
				mk.Prune.abandonDisk(k)
			}
			judgeErr = err
			return false
		}
		if mk.Prune != nil {
			mk.Prune.misses.Add(1)
			mk.Prune.storeDisk(k, v)
		}
		j.tally(epoch, desc, v)
		return true
	}

	log := p.rec.Log()
	var err error
	if mk.ScratchStates {
		epochs := blockdev.Epochs(log)
		// scratch builds one state from a fresh snapshot, replaying every
		// prior epoch plus the inFlight writes of its own.
		scratch := func(epoch int, desc string, inFlight int64, apply func(blockdev.Device) error) bool {
			crash := blockdev.NewSnapshot(p.base)
			crash.SetMeter(mk.Meter)
			if judgeErr = apply(crash); judgeErr != nil {
				return false
			}
			s.replayed += priorEpochWrites(epochs, epoch) + inFlight
			return visit(epoch, desc, crash)
		}
		if sp.fault {
			err = blockdev.ForEachFaultState(log, sp.kind, sp.sector,
				func(st blockdev.FaultState, apply func(blockdev.Device) error) bool {
					inFlight := int64(st.Applied)
					if st.Write >= 0 && st.Kind != blockdev.FaultMisdirect {
						inFlight++ // the torn or corrupting write itself
					}
					return scratch(st.Epoch, st.Desc, inFlight, apply)
				})
		} else {
			blockdev.ForEachReorderState(log, sp.k,
				func(st blockdev.ReorderState, apply func(blockdev.Device) error) bool {
					return scratch(st.Epoch, st.Desc, int64(st.Applied-len(st.Dropped)), apply)
				})
		}
		if mk.Meter != nil {
			mk.Meter.BlocksReplayed.Add(s.replayed)
		}
	} else {
		classPrune := mk.Prune != nil && !mk.NoClassPrune
		var stats blockdev.EnumStats
		if sp.fault {
			var opts blockdev.FaultEnumOpts
			if classPrune {
				opts.Seen = func(st blockdev.FaultState, fp uint64) bool { return seen(st.Epoch, st.Desc, fp) }
			}
			stats, err = blockdev.ForEachFaultStatePruned(p.base, log, sp.kind, sp.sector, opts, mk.Meter,
				func(st blockdev.FaultState, crash *blockdev.Snapshot) bool { return visit(st.Epoch, st.Desc, crash) })
		} else {
			var opts blockdev.ReorderEnumOpts
			if classPrune {
				opts.Seen = func(st blockdev.ReorderState, fp uint64) bool { return seen(st.Epoch, st.Desc, fp) }
			}
			stats, err = blockdev.ForEachReorderStatePruned(p.base, log, sp.k, opts, mk.Meter,
				func(st blockdev.ReorderState, crash *blockdev.Snapshot) bool { return visit(st.Epoch, st.Desc, crash) })
		}
		s.replayed = stats.Replayed
	}
	if judgeErr != nil {
		return s, judgeErr
	}
	return s, err
}

// priorEpochWrites is the number of writes of the epochs before epoch: what
// the reference engine replays ahead of every state in flight during it.
func priorEpochWrites(epochs []blockdev.Epoch, epoch int) int64 {
	var n int64
	for e := 0; e < epoch && e < len(epochs); e++ {
		n += int64(len(epochs[e].Writes))
	}
	return n
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
// hoist inside Profile.state, the single-flight disk-tier lookup, the
// verdict, and the store. oracle is the checkpoint's full oracle salt;
// check renders a fresh verdict and reports "tree" when it reused a
// tree-tier verdict.
func (mk *Monkey) judgeCheckpoint(p *Profile, cp int, oracle uint64,
	check func(crash *blockdev.Snapshot, oracle uint64) (*cachedVerdict, string, error)) (checkpointVerdict, error) {

	var out checkpointVerdict
	var key stateKey
	haveKey := false
	var classified func(fp uint64) bool
	if mk.Prune != nil && !mk.NoClassPrune {
		// The incremental cursor's fingerprint is O(1) after the seek, so a
		// state whose class was already judged is never forked at all.
		classified = func(fp uint64) bool {
			key, haveKey = stateKey{state: fp, oracle: oracle}, true
			v, ok := mk.Prune.classify(key)
			out.v = v
			return ok
		}
	}

	start := time.Now()
	crash, replayed, err := p.state(cp, mk.ScratchStates, mk.Meter, classified)
	if err != nil {
		return out, fmt.Errorf("crashmonkey: replay: %w", err)
	}
	out.replayed, out.replayDur = replayed, time.Since(start)
	out.stateHash = key.state
	if crash == nil {
		// The hoisted lookup hit: reported as a disk-tier prune — the
		// verdict source is the same cache line; only construction was saved.
		out.prunedBy = "disk"
		return out, nil
	}
	// Forks hold only recovery/checker writes; hand their buffers back to
	// the pool once the verdict is composed.
	defer crash.Release()

	if mk.Prune != nil {
		if !haveKey {
			key = stateKey{state: crash.Fingerprint(), oracle: oracle}
			out.stateHash = key.state
		}
		if v, ok := mk.Prune.lookupDisk(key); ok {
			out.v, out.prunedBy = v, "disk"
			return out, nil
		}
	}

	start = time.Now()
	v, prunedBy, err := check(crash, oracle)
	out.checkDur = time.Since(start)
	if err != nil {
		if mk.Prune != nil {
			mk.Prune.abandonDisk(key)
		}
		return out, err
	}
	out.v, out.prunedBy = v, prunedBy
	if mk.Prune != nil {
		if prunedBy == "" {
			mk.Prune.misses.Add(1)
		}
		mk.Prune.storeDisk(key, v)
	}
	return out, nil
}
