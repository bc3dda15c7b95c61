package runtime

import (
	"sync"
	"testing"
	"time"

	"repro/internal/agas"
	"repro/internal/parcel"
)

// ctxRecord collects the Contexts actions ran with, keyed by the
// (locality, source) the caller addressed: args are [dest, source].
type ctxRecord struct {
	mu   sync.Mutex
	seen map[[2]int][]*Context
}

func (r *ctxRecord) action(ctx *Context, args []byte) ([]byte, error) {
	r.mu.Lock()
	k := [2]int{int(args[0]), int(args[1])}
	r.seen[k] = append(r.seen[k], ctx)
	r.mu.Unlock()
	return nil, nil
}

// TestContextSharedPerLocalityAndSource: every action locality L runs for
// source S — plain or component, remote or local — gets one and the same
// *Context, reading L and S, and no other pair shares it.
func TestContextSharedPerLocalityAndSource(t *testing.T) {
	const n, rounds = 3, 3
	rt := newTestRuntime(t, n)
	rec := &ctxRecord{seen: make(map[[2]int][]*Context)}
	rt.MustRegisterAction("ctx/record", rec.action)
	rt.MustRegisterComponentAction("ctx/record", func(ctx *Context, _ Component, args []byte) ([]byte, error) {
		return rec.action(ctx, args)
	})
	objs := make([]agas.GID, n)
	for l := range objs {
		g, err := rt.Locality(l).NewComponent(struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		objs[l] = g
	}
	for r := 0; r < rounds; r++ {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				f, err := rt.Locality(src).Async(dst, "ctx/record", []byte{byte(dst), byte(src)})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.GetWithTimeout(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				// A component call travels as a parcel even to its own
				// locality, where the plain call above ran as a local task.
				f, err = rt.Locality(src).AsyncComponent(objs[dst], "ctx/record", []byte{byte(dst), byte(src)})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.GetWithTimeout(5 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	owner := make(map[*Context][2]int)
	for k, ctxs := range rec.seen {
		for _, ctx := range ctxs {
			if ctx != ctxs[0] {
				t.Errorf("locality %d, source %d: actions ran with %p and %p", k[0], k[1], ctxs[0], ctx)
			}
			if ctx.Locality != k[0] || ctx.Source != k[1] || ctx.Runtime != rt {
				t.Errorf("locality %d, source %d: ctx reads locality %d, source %d", k[0], k[1], ctx.Locality, ctx.Source)
			}
		}
		if o, dup := owner[ctxs[0]]; dup {
			t.Errorf("pairs %v and %v share one Context", o, k)
		}
		owner[ctxs[0]] = k
	}
	if len(rec.seen) != n*n {
		t.Fatalf("recorded %d (locality, source) pairs, want %d", len(rec.seen), n*n)
	}
}

// TestContextKeptPastReturn: an action may keep its ctx after returning
// (a task it spawned reads it later); actions run meanwhile for other
// sources on the same locality must not change what it reads.
func TestContextKeptPastReturn(t *testing.T) {
	rt := newTestRuntime(t, 3)
	kept := make(chan *Context, 1)
	rt.MustRegisterAction("ctx/keep", func(ctx *Context, _ []byte) ([]byte, error) {
		select {
		case kept <- ctx:
		default:
		}
		return nil, nil
	})
	for _, src := range []int{2, 0, 1, 0, 1} { // 2 first: the kept one
		f, err := rt.Locality(src).Async(1, "ctx/keep", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.GetWithTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	read := make(chan [2]int)
	ctx := <-kept
	rt.Locality(1).Spawn(func() { read <- [2]int{ctx.Locality, ctx.Source} })
	if got := <-read; got != [2]int{1, 2} {
		t.Fatalf("kept ctx reads locality %d, source %d after later actions, want 1, 2", got[0], got[1])
	}
}

// TestContextForOutOfRangeSource: a parcel whose wire Source names no
// locality still runs with a Context reading this locality and that
// source.
func TestContextForOutOfRangeSource(t *testing.T) {
	rt := newTestRuntime(t, 2)
	got := make(chan Context, 2)
	rt.MustRegisterAction("ctx/odd", func(ctx *Context, _ []byte) ([]byte, error) {
		got <- *ctx
		return nil, nil
	})
	l := rt.Locality(1)
	for _, src := range []int{99, 1<<32 - 1} {
		l.deliverParcel(&parcel.Parcel{Dest: l.GID(), DestLocality: -1, Action: "ctx/odd", Source: src})
		select {
		case ctx := <-got:
			if ctx.Locality != 1 || ctx.Source != src || ctx.Runtime != rt {
				t.Errorf("source %d: ctx reads locality %d, source %d", src, ctx.Locality, ctx.Source)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("source %d: action never ran", src)
		}
	}
}
