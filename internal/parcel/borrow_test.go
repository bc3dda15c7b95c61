package parcel

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/agas"
	"repro/internal/network"
)

// borrowTestBundle builds a representative bundle and returns both the
// source parcels and the encoded wire image in a pooled payload buffer,
// ready for DecodeBundleBorrowed (which takes ownership on success).
func borrowTestBundle(n int) ([]*Parcel, []byte) {
	src := make([]*Parcel, n)
	for i := range src {
		src[i] = &Parcel{
			Dest:         agas.GID(100 + i),
			Continuation: agas.GID(i),
			Source:       i % 4,
			Action:       fmt.Sprintf("test/borrow-%d", i),
			Args:         bytes.Repeat([]byte{byte(i)}, 32+i),
		}
	}
	wire := EncodeBundle(src)
	buf := network.GetPayload(len(wire))
	copy(buf, wire)
	return src, buf
}

// TestDecodeBundleBorrowedMatchesCopy asserts the borrowing decoder is
// semantically identical to the copying one on every field.
func TestDecodeBundleBorrowedMatchesCopy(t *testing.T) {
	src, buf := borrowTestBundle(8)
	want, err := DecodeBundle(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBundleBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(src) || len(want) != len(src) {
		t.Fatalf("decoded %d borrowed / %d copied parcels, want %d", len(got), len(want), len(src))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Dest != w.Dest || g.Continuation != w.Continuation ||
			g.Source != w.Source || g.DestLocality != w.DestLocality ||
			g.Action != w.Action || !bytes.Equal(g.Args, w.Args) {
			t.Fatalf("parcel %d: borrowed %+v != copied %+v", i, g, w)
		}
		if !g.Borrowed() {
			t.Fatalf("parcel %d: Borrowed() = false after borrowing decode", i)
		}
		if w.Borrowed() {
			t.Fatalf("parcel %d: copying decode produced a borrowed parcel", i)
		}
	}
	ReleaseBundle(got)
}

// TestBorrowReleaseRecyclesPayload verifies the last Release of a bundle
// is what ends the payload's lifetime: with the debug guard on, the
// payload is poisoned only once every parcel has released its reference.
func TestBorrowReleaseRecyclesPayload(t *testing.T) {
	defer SetBorrowDebug(SetBorrowDebug(true))
	_, buf := borrowTestBundle(4)
	ps, err := DecodeBundleBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if buf[0] == 0xDD && buf[1] == 0xDD {
			t.Fatalf("payload poisoned after %d of %d releases", i, len(ps))
		}
		p.Release()
	}
	for i, b := range buf {
		if b != 0xDD {
			t.Fatalf("payload byte %d = %#x after last release, want 0xDD poison", i, b)
		}
	}
	PutBatch(ps)
}

// TestBorrowDoubleReleasePanics asserts the debug guard turns a double
// Release into a deterministic panic rather than silent pool corruption.
func TestBorrowDoubleReleasePanics(t *testing.T) {
	defer SetBorrowDebug(SetBorrowDebug(true))
	_, buf := borrowTestBundle(1)
	ps, err := DecodeBundleBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	ps[0].Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	ps[0].Release()
}

// TestBorrowDetach verifies Detach copies the borrowed fields into owned
// memory that survives the payload's recycling, and that the detached
// parcel's later Release is a no-op.
func TestBorrowDetach(t *testing.T) {
	defer SetBorrowDebug(SetBorrowDebug(true))
	src, buf := borrowTestBundle(3)
	ps, err := DecodeBundleBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	kept := ps[1]
	kept.Detach()
	if kept.Borrowed() {
		t.Fatal("parcel still Borrowed() after Detach")
	}
	ps[0].Release()
	ps[2].Release()
	// All references are gone; the payload is poison now. The detached
	// copy must be unaffected.
	if kept.Action != src[1].Action || !bytes.Equal(kept.Args, src[1].Args) {
		t.Fatalf("detached parcel corrupted by payload recycle: %+v", kept)
	}
	kept.Release() // owned: must be a no-op
	kept.Detach()  // idempotent on owned parcels
	if kept.Action != src[1].Action {
		t.Fatalf("owned parcel mutated by no-op Release/Detach: %+v", kept)
	}
	PutBatch(ps)
}

// TestReleaseOwnedParcelNoop: delivery wrappers call Release
// unconditionally, so it must be safe on parcels that never borrowed.
func TestReleaseOwnedParcelNoop(t *testing.T) {
	p := &Parcel{Action: "x", Args: []byte("y")}
	p.Release()
	p.Release()
	if p.Action != "x" || string(p.Args) != "y" {
		t.Fatalf("Release mutated owned parcel: %+v", p)
	}
}

// TestForwardRacesNoRelease is the migration-retry interleaving in small:
// a detached parcel is re-sent by one goroutine while the delivery wrapper
// that first carried it calls its unconditional Release on another.
// Forward reads the wire fields only, so the race detector stays quiet (a
// whole-struct copy reads the borrow word Release CASes).
func TestForwardRacesNoRelease(t *testing.T) {
	src, buf := borrowTestBundle(1)
	ps, err := DecodeBundleBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	p.Detach()
	p.Retries = 3
	released := make(chan struct{})
	go func() { p.Release(); close(released) }()
	fwd := p.Forward(7)
	<-released
	want := src[0]
	if fwd.Dest != want.Dest || fwd.DestLocality != 7 || fwd.Action != want.Action ||
		!bytes.Equal(fwd.Args, want.Args) || fwd.Continuation != want.Continuation ||
		fwd.Source != want.Source || fwd.Retries != 0 || fwd.Borrowed() {
		t.Fatalf("Forward = %+v, want the wire fields of %+v at locality 7, owned, no retries", fwd, want)
	}
	PutBatch(ps)
}

// TestDecodeBundleBorrowedEmpty: a zero-parcel bundle transfers payload
// ownership and recycles it immediately.
func TestDecodeBundleBorrowedEmpty(t *testing.T) {
	wire := EncodeBundle(nil)
	buf := network.GetPayload(len(wire))
	copy(buf, wire)
	ps, err := DecodeBundleBorrowed(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 0 {
		t.Fatalf("decoded %d parcels from empty bundle", len(ps))
	}
	PutBatch(ps)
}

// TestDecodeBundleBorrowedHostile feeds the borrowing decoder the same
// malformed inputs as the copying one: every case must fail with
// ErrBadBundle, leak nothing, and leave payload ownership with the
// caller.
func TestDecodeBundleBorrowedHostile(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00, 0x01},
		{bundleMagic},
		append([]byte{bundleMagic, 1}, make([]byte, 10)...),
		append(EncodeBundle([]*Parcel{{Action: "x"}}), 0xDE, 0xAD),
	}
	for i, data := range cases {
		ps, err := DecodeBundleBorrowed(data)
		if !errors.Is(err, ErrBadBundle) {
			t.Fatalf("case %d: DecodeBundleBorrowed = (%d parcels, %v), want ErrBadBundle", i, len(ps), err)
		}
	}
}

// TestZeroAllocBorrowedDecode pins the borrowed receive path at zero
// allocations per bundle in steady state: pooled payload in, borrowing
// decode, release, payload recycled. This is the rx mirror of the send
// path's encode/send guards in bench.
func TestZeroAllocBorrowedDecode(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	src, _ := borrowTestBundle(16)
	wire := EncodeBundle(src)
	decode := func() {
		buf := network.GetPayload(len(wire))
		copy(buf, wire)
		ps, err := DecodeBundleBorrowed(buf)
		if err != nil {
			panic(err)
		}
		ReleaseBundle(ps)
	}
	// Reach steady state first: the pools (payload, parcel, owner, batch)
	// fill over the first few iterations.
	for i := 0; i < 32; i++ {
		decode()
	}
	if avg := testing.AllocsPerRun(200, decode); avg != 0 {
		t.Errorf("borrowed decode+release: %v allocs/op, want 0", avg)
	}
}

// TestZeroAllocEncode pins the tx mirror in the same package: bundle
// encoding into a pooled payload allocates nothing in steady state.
func TestZeroAllocEncode(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	src, _ := borrowTestBundle(16)
	wire := EncodeBundle(src)
	encode := func() {
		buf := AppendBundle(network.GetPayload(len(wire))[:0], src)
		network.PutPayload(buf)
	}
	for i := 0; i < 32; i++ {
		encode()
	}
	if avg := testing.AllocsPerRun(200, encode); avg != 0 {
		t.Errorf("encode into pooled payload: %v allocs/op, want 0", avg)
	}
}
