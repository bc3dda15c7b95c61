// Package cluster promotes the runtime to a multi-process distributed
// system: each OS process hosts one locality over a network.TCPFabric
// built by network.NewPeerFabric, discovers the others through a
// seed-based bootstrap/join protocol, and maintains SWIM-style gossip
// membership on top of the phi-accrual failure detector (internal/health).
//
// Membership follows the SWIM state machine (Das et al.): every member is
// alive, suspect, or confirmed down, tagged with an incarnation number
// its own node increments to refute suspicion. Entries merge by
// precedence — confirmed-down overrides everything; otherwise higher
// incarnation wins, and at equal incarnation the more severe state wins
// (suspect > alive) — so rumors converge to the same table everywhere
// regardless of arrival order. Suspicion comes from
// the local detector's soft threshold (health.Config.SuspectPhi);
// confirmed-down comes from the hard threshold (PhiThreshold → runtime
// DeclareDown) or from gossip, and is terminal, feeding the PR 5
// degradation path (reliable.FailPeer, port.FailDest, AGAS MarkDown) on
// every surviving node.
//
// With rejoin enabled (Options.Rejoin), StateDown stops being terminal:
// entries additionally carry a join *epoch* (wall-clock-derived for real
// processes, constant in-process), and merge precedence becomes strictly
// lexicographic on (Epoch, Incarnation, State). Epoch distinguishes the
// two rebirth shapes — a partition-healed node refutes its own obituary
// at the *same* epoch with a higher incarnation, while a crash-restarted
// process joins at a *fresh* epoch that supersedes every entry the old
// process left behind. Because the precedence relation is a total order
// on entries, merges converge identically regardless of gossip delivery
// order. Observing a Down member supersede to Alive is the up edge that
// drives runtime.DeclareUp (the un-degradation path). See also SWIM's
// ping-req indirect probing and Lifeguard's local-health multiplier in
// manager.go, which keep reachable nodes from being convicted at all.
package cluster

import (
	"errors"
	"fmt"

	"repro/internal/serialization"
)

// State is a member's SWIM lifecycle state.
type State uint8

const (
	// StateAlive is the healthy default.
	StateAlive State = iota
	// StateSuspect marks accrued-but-refutable silence: the suspected
	// node bumps its incarnation and gossips alive to clear it.
	StateSuspect
	// StateDown is the terminal confirmed-crash verdict.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Member is one locality's membership entry as gossiped on the wire.
// Addr rides along so the member map doubles as the peer-address table:
// receiving a member is enough to dial it, which is how late joiners
// become reachable cluster-wide without a second exchange.
type Member struct {
	ID          int
	Incarnation uint64
	// Epoch identifies one process-lifetime of the member: 0 for
	// in-process clusters and rejoin-disabled nodes, a wall-clock-derived
	// value for amc-node processes running the rejoin protocol. A fresh
	// epoch (crash-restart rebirth) supersedes every entry of an older
	// one; within an epoch, incarnations arbitrate as in classic SWIM.
	Epoch uint64
	State State
	Addr  string
}

// supersedes reports whether a replaces b under SWIM precedence:
// confirmed-down overrides any incarnation (death is terminal, not
// refutable — a suspect's incarnation bumps must not outrun its own
// obituary); otherwise higher incarnation wins, and at equal incarnation
// the more severe state wins.
func supersedes(a, b Member) bool {
	if b.State == StateDown {
		return false
	}
	if a.State == StateDown {
		return true
	}
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	return a.State > b.State
}

// supersedesRejoin is the precedence relation when the rejoin protocol
// is enabled: strictly lexicographic on (Epoch, Incarnation, State), a
// total order. Down is no longer terminal — a higher epoch (restarted
// process) or a higher incarnation at the same epoch (partition-healed
// node refuting its own obituary) overrides it; at equal (epoch,
// incarnation) the more severe state still wins, which preserves both
// "suspect beats alive" and "down beats suspect" for rumors about the
// same lifetime. Totality is what makes merges order-independent:
// whatever interleaving gossip delivers, every table converges to the
// per-member maximum.
func supersedesRejoin(a, b Member) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if a.Incarnation != b.Incarnation {
		return a.Incarnation > b.Incarnation
	}
	return a.State > b.State
}

// Membership wire format: a fixed header (magic, version, entry count)
// followed by fixed-layout entries (id u32, incarnation u64, epoch u64,
// state u8, addr u16-prefixed). Bounds are validated field by field so a
// hostile or corrupt table is rejected before any allocation it sizes.
// Version 2 added the epoch field; v1 frames are rejected — cluster
// nodes are started from one build, so no mixed-version window exists.
const (
	membershipMagic   = 0xC1
	membershipVersion = 2

	// MaxMembers bounds the entry count a single table may carry.
	MaxMembers = 4096
	// MaxAddrLen bounds one member's address string.
	MaxAddrLen = 256
)

// ErrBadMembership reports a malformed membership table.
var ErrBadMembership = errors.New("cluster: malformed membership table")

// EncodeMembership appends the wire encoding of a membership table to
// dst and returns the extended slice.
func EncodeMembership(dst []byte, ms []Member) []byte {
	w := serialization.GetWriter()
	defer serialization.PutWriter(w)
	w.U8(membershipMagic)
	w.U8(membershipVersion)
	w.U16(uint16(len(ms)))
	for _, m := range ms {
		w.U32(uint32(m.ID))
		w.U64(m.Incarnation)
		w.U64(m.Epoch)
		w.U8(uint8(m.State))
		w.U16(uint16(len(m.Addr)))
		w.RawBytes([]byte(m.Addr))
	}
	return append(dst, w.Bytes()...)
}

// DecodeMembership parses a membership table, validating every bound.
func DecodeMembership(data []byte) ([]Member, error) {
	r := serialization.NewReader(data)
	if magic := r.U8(); magic != membershipMagic {
		return nil, fmt.Errorf("%w: magic 0x%02x", ErrBadMembership, magic)
	}
	if v := r.U8(); v != membershipVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadMembership, v)
	}
	count := int(r.U16())
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadMembership)
	}
	if count > MaxMembers {
		return nil, fmt.Errorf("%w: %d entries exceeds limit %d", ErrBadMembership, count, MaxMembers)
	}
	ms := make([]Member, 0, count)
	for i := 0; i < count; i++ {
		var m Member
		m.ID = int(r.U32())
		m.Incarnation = r.U64()
		m.Epoch = r.U64()
		st := r.U8()
		addrLen := int(r.U16())
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrBadMembership, i)
		}
		if st > uint8(StateDown) {
			return nil, fmt.Errorf("%w: entry %d state %d", ErrBadMembership, i, st)
		}
		if addrLen > MaxAddrLen {
			return nil, fmt.Errorf("%w: entry %d address length %d exceeds limit %d", ErrBadMembership, i, addrLen, MaxAddrLen)
		}
		addr := r.RawBytes(addrLen)
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated entry %d address", ErrBadMembership, i)
		}
		m.State = State(st)
		m.Addr = string(addr)
		ms = append(ms, m)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMembership, r.Remaining())
	}
	return ms, nil
}
