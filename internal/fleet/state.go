package fleet

import (
	"encoding/json"
	"fmt"
)

// LeaseState is the lifecycle of one residue class in the coordinator's
// table. There is no "expired" state: expiry is the Leased→Pending
// transition (journaled as EventExpire), after which the class is
// indistinguishable from never-leased — exactly what makes re-issue safe.
type LeaseState int

const (
	// StatePending: unleased; grantable (and splittable under demand).
	StatePending LeaseState = iota
	// StateLeased: held by a worker under a heartbeat deadline.
	StateLeased
	// StateDone: every backend's corpus shard for the class carries its
	// completion marker; terminal.
	StateDone

	// NumLeaseStates bounds the enum for exhaustiveness checks.
	NumLeaseStates int = iota
)

// String renders the state for status tables and the ledger.
func (s LeaseState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateLeased:
		return "leased"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("LeaseState(%d)", int(s))
	}
}

// ParseLeaseState inverts String for the wire format.
func ParseLeaseState(s string) (LeaseState, error) {
	for st := LeaseState(0); int(st) < NumLeaseStates; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown lease state %q", s)
}

// MarshalJSON encodes the state by name: ledger lines and status tables
// stay readable, and renumbering the enum can never corrupt a journal.
func (s LeaseState) MarshalJSON() ([]byte, error) {
	if s < 0 || int(s) >= NumLeaseStates {
		return nil, fmt.Errorf("fleet: cannot encode lease state %d", int(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a state name.
func (s *LeaseState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	st, err := ParseLeaseState(name)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// EventKind is one journaled lease-table transition.
type EventKind int

const (
	// EventGrant: Pending→Leased; carries the lease id and worker.
	EventGrant EventKind = iota
	// EventComplete: Leased→Done. Also journaled when an expiring class
	// turns out to be fully swept on disk (the holder died between its
	// last corpus checkpoint — which wrote every DoneRecord — and its
	// /v1/complete call): re-issuing would waste a lease round-trip just
	// to rediscover the markers. With lease 0 it adopts a pending class
	// that expired or was released and whose former holder went on to
	// write every DoneRecord.
	EventComplete
	// EventExpire: Leased→Pending on a missed heartbeat deadline.
	EventExpire
	// EventRelease: Leased→Pending at the worker's own request.
	EventRelease
	// EventSplit: a Pending class is replaced by its two half-density
	// children (work-stealing under recorded demand). The class's partial
	// corpus shards are deleted before this event is journaled — the
	// children re-sweep the whole class, and stale partial shards would
	// make the corpus directory unmergeable.
	EventSplit

	// NumEventKinds bounds the enum for exhaustiveness checks.
	NumEventKinds int = iota
)

// String renders the kind for the ledger wire format.
func (k EventKind) String() string {
	switch k {
	case EventGrant:
		return "grant"
	case EventComplete:
		return "complete"
	case EventExpire:
		return "expire"
	case EventRelease:
		return "release"
	case EventSplit:
		return "split"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ParseEventKind inverts String for ledger replay.
func ParseEventKind(s string) (EventKind, error) {
	for k := EventKind(0); int(k) < NumEventKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fleet: unknown event kind %q", s)
}

// MarshalJSON encodes the kind by name (see LeaseState.MarshalJSON).
func (k EventKind) MarshalJSON() ([]byte, error) {
	if k < 0 || int(k) >= NumEventKinds {
		return nil, fmt.Errorf("fleet: cannot encode event kind %d", int(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	kind, err := ParseEventKind(name)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}
