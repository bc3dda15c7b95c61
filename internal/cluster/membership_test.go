package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestMembershipRoundTrip(t *testing.T) {
	in := []Member{
		{ID: 0, Incarnation: 1, State: StateAlive, Addr: "127.0.0.1:9000"},
		{ID: 1, Incarnation: 7, Epoch: 1722500000000, State: StateSuspect, Addr: ""},
		{ID: 2, Incarnation: 42, Epoch: 1 << 62, State: StateDown, Addr: "[::1]:1"},
	}
	enc := EncodeMembership(nil, in)
	out, err := DecodeMembership(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d members, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestMembershipEncodeAppends(t *testing.T) {
	prefix := []byte("prefix")
	enc := EncodeMembership(prefix, []Member{{ID: 3, Incarnation: 1}})
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("encode must append to dst")
	}
	if _, err := DecodeMembership(enc[len(prefix):]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

func TestMembershipDecodeRejectsHostile(t *testing.T) {
	valid := EncodeMembership(nil, []Member{{ID: 1, Incarnation: 2, State: StateAlive, Addr: "a:1"}})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{0x00}, valid[1:]...)},
		{"bad version", func() []byte { b := bytes.Clone(valid); b[1] = 99; return b }()},
		{"truncated header", valid[:3]},
		{"truncated entry", valid[:6]},
		{"truncated addr", valid[:len(valid)-1]},
		{"trailing bytes", append(bytes.Clone(valid), 0)},
		{"bad state", func() []byte {
			b := EncodeMembership(nil, []Member{{ID: 1, Incarnation: 2}})
			b[4+4+8+8] = 7 // state byte of entry 0 (after id, incarnation, epoch)
			return b
		}()},
		{"count overflow", func() []byte {
			b := bytes.Clone(valid)
			b[2], b[3] = 0xff, 0xff // count = 65535 > MaxMembers
			return b
		}()},
		{"addr overflow", func() []byte {
			b := EncodeMembership(nil, []Member{{ID: 1, Incarnation: 2}})
			b[len(b)-2], b[len(b)-1] = 0xff, 0xff // addrLen = 65535
			return b
		}()},
	}
	for _, tc := range cases {
		if _, err := DecodeMembership(tc.data); !errors.Is(err, ErrBadMembership) {
			t.Errorf("%s: got %v, want ErrBadMembership", tc.name, err)
		}
	}
}

func TestMembershipAddrLimit(t *testing.T) {
	long := strings.Repeat("x", MaxAddrLen)
	enc := EncodeMembership(nil, []Member{{ID: 1, Incarnation: 1, Addr: long}})
	out, err := DecodeMembership(enc)
	if err != nil || out[0].Addr != long {
		t.Fatalf("max-length addr must round-trip, got %v", err)
	}
}

// TestSupersedesRejoin checks the one precedence, the (Epoch,
// Incarnation, State) order under which a conviction can be undone by
// a rejoin.
func TestSupersedesRejoin(t *testing.T) {
	cases := []struct {
		name string
		a, b Member
		want bool
	}{
		// Down is refutable at the same epoch by a higher incarnation
		// (partition-healed node refuting its obituary)...
		{"rejoin refutes down", Member{Epoch: 5, Incarnation: 3, State: StateAlive}, Member{Epoch: 5, Incarnation: 2, State: StateDown}, true},
		// ...but not at the same incarnation: the obituary stands.
		{"down beats alive same inc", Member{Epoch: 5, Incarnation: 2, State: StateAlive}, Member{Epoch: 5, Incarnation: 2, State: StateDown}, false},
		{"down wins same inc", Member{Epoch: 5, Incarnation: 2, State: StateDown}, Member{Epoch: 5, Incarnation: 2, State: StateSuspect}, true},
		// A fresh epoch (crash-restart rebirth) beats everything older,
		// including a Down verdict at a much higher incarnation.
		{"new epoch beats old down", Member{Epoch: 6, Incarnation: 1, State: StateAlive}, Member{Epoch: 5, Incarnation: 99, State: StateDown}, true},
		{"old epoch never wins", Member{Epoch: 4, Incarnation: 99, State: StateDown}, Member{Epoch: 5, Incarnation: 1, State: StateAlive}, false},
		// Within an epoch, classic SWIM arbitration.
		{"higher inc wins", Member{Epoch: 5, Incarnation: 3, State: StateAlive}, Member{Epoch: 5, Incarnation: 2, State: StateSuspect}, true},
		{"suspect beats alive", Member{Epoch: 5, Incarnation: 2, State: StateSuspect}, Member{Epoch: 5, Incarnation: 2, State: StateAlive}, true},
		{"equal is not newer", Member{Epoch: 5, Incarnation: 2, State: StateAlive}, Member{Epoch: 5, Incarnation: 2, State: StateAlive}, false},
	}
	for _, tc := range cases {
		if got := supersedes(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: supersedes(%+v, %+v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		// Totality: for unequal entries exactly one direction supersedes,
		// which is what makes merge order-independent.
		if tc.a != tc.b {
			fwd, rev := supersedes(tc.a, tc.b), supersedes(tc.b, tc.a)
			if fwd == rev {
				t.Errorf("%s: not a total order: fwd=%v rev=%v", tc.name, fwd, rev)
			}
		}
	}
}

// TestRejoinOrderIndependence folds the full rumor history of a member
// that went Down, rebirthed (same epoch, higher incarnation), went Down
// again, and finally restarted at a fresh epoch — in every permutation —
// and demands the identical winner each time. This is the property that
// lets gossip deliver rumors in any order without split-brain tables.
func TestRejoinOrderIndependence(t *testing.T) {
	history := []Member{
		{ID: 1, Epoch: 10, Incarnation: 1, State: StateAlive},
		{ID: 1, Epoch: 10, Incarnation: 1, State: StateSuspect},
		{ID: 1, Epoch: 10, Incarnation: 1, State: StateDown},
		{ID: 1, Epoch: 10, Incarnation: 2, State: StateAlive}, // partition-heal rebirth
		{ID: 1, Epoch: 10, Incarnation: 2, State: StateDown},  // convicted again
		{ID: 1, Epoch: 11, Incarnation: 1, State: StateAlive}, // crash-restart rebirth
	}
	want := history[len(history)-1]

	var permute func(ms []Member, k int)
	permute = func(ms []Member, k int) {
		if k == len(ms) {
			cur := ms[0]
			for _, e := range ms[1:] {
				if supersedes(e, cur) {
					cur = e
				}
			}
			if cur != want {
				t.Fatalf("order %+v converged to %+v, want %+v", ms, cur, want)
			}
			return
		}
		for i := k; i < len(ms); i++ {
			ms[k], ms[i] = ms[i], ms[k]
			permute(ms, k+1)
			ms[k], ms[i] = ms[i], ms[k]
		}
	}
	permute(append([]Member(nil), history...), 0)
}

func FuzzDecodeMembership(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeMembership(nil, nil))
	f.Add(EncodeMembership(nil, []Member{{ID: 0, Incarnation: 1, State: StateAlive, Addr: "127.0.0.1:9000"}}))
	f.Add(EncodeMembership(nil, []Member{
		{ID: 1, Incarnation: 1 << 60, State: StateSuspect, Addr: strings.Repeat("a", MaxAddrLen)},
		{ID: 2, Incarnation: 0, State: StateDown},
	}))
	f.Add(EncodeMembership(nil, []Member{
		{ID: 3, Incarnation: 2, Epoch: 1722500000000, State: StateAlive, Addr: "h:1"},
		{ID: 4, Incarnation: 9, Epoch: ^uint64(0), State: StateDown},
	}))
	f.Add([]byte{membershipMagic, membershipVersion, 0xff, 0xff})
	f.Add([]byte{membershipMagic, membershipVersion, 1, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := DecodeMembership(data) // must never panic
		if err != nil {
			return
		}
		// Decoded tables must re-encode to the identical bytes: the codec
		// admits exactly one representation per table.
		enc := EncodeMembership(nil, ms)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, enc)
		}
		for i, m := range ms {
			if m.State > StateDown {
				t.Fatalf("entry %d: invalid state %d survived decode", i, m.State)
			}
			if len(m.Addr) > MaxAddrLen {
				t.Fatalf("entry %d: oversized addr survived decode", i)
			}
		}
	})
}
