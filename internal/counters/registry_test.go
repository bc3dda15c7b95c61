package counters

import (
	"sync"
	"testing"
	"time"
)

func TestRawCounter(t *testing.T) {
	c := NewRaw(MustParse("/parcels/count/sent"))
	c.Inc()
	c.Add(4)
	if c.Get() != 5 || c.Value() != 5 {
		t.Errorf("value = %v", c.Get())
	}
	c.Add(-2)
	if c.Get() != 3 {
		t.Errorf("after negative add = %v", c.Get())
	}
	c.Reset()
	if c.Get() != 0 {
		t.Error("reset failed")
	}
	if c.Kind() != KindRaw {
		t.Error("wrong kind")
	}
}

func TestAverageCounter(t *testing.T) {
	c := NewAverage(MustParse("/coalescing/count/average-parcels-per-message@a"))
	c.Record(2)
	c.Record(4)
	c.Record(6)
	if c.Value() != 4 {
		t.Errorf("mean = %v", c.Value())
	}
	c.RecordDuration(8 * time.Microsecond)
	if c.Value() != 5 {
		t.Errorf("mean after a duration = %v", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
	}
	if c.Kind() != KindAverage {
		t.Error("wrong kind")
	}
}

func TestElapsedCounter(t *testing.T) {
	c := NewElapsed(MustParse("/threads/background-work"))
	c.AddNanos(int64(500 * time.Millisecond))
	c.AddNanos(int64(250 * time.Millisecond))
	if got := c.Value(); got != 0.75 {
		t.Errorf("seconds = %v", got)
	}
	if got := c.Total(); got != 750*time.Millisecond {
		t.Errorf("total = %v", got)
	}
	c.AddNanos(int64(250 * time.Millisecond))
	if got := c.Total(); got != time.Second {
		t.Errorf("total after a third AddNanos = %v", got)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Error("reset failed")
	}
	if c.Kind() != KindElapsed {
		t.Error("wrong kind")
	}
}

func TestHistogramCounter(t *testing.T) {
	c := NewHistogramCounter(MustParse("/coalescing/time/parcel-arrival-histogram@a"), 0, 1000, 10)
	c.ObserveBatch([]float64{50, 150})
	if c.Value() != 2 {
		t.Errorf("count = %v", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
	}
	if c.Kind() != KindHistogram {
		t.Error("wrong kind")
	}
	if c.Histogram() == nil {
		t.Error("histogram accessor nil")
	}
}

func TestDerivedCounter(t *testing.T) {
	bg := NewElapsed(MustParse("/threads/background-work"))
	td := NewElapsed(MustParse("/threads/time/cumulative"))
	ratio := NewDerived(MustParse("/threads/background-overhead"), func() float64 {
		total := td.Value()
		if total == 0 {
			return 0
		}
		return bg.Value() / total
	})
	if ratio.Value() != 0 {
		t.Error("empty ratio should be 0")
	}
	bg.AddNanos(int64(time.Second))
	td.AddNanos(int64(4 * time.Second))
	if got := ratio.Value(); got != 0.25 {
		t.Errorf("ratio = %v", got)
	}
	ratio.Reset() // no-op, must not panic
	if ratio.Kind() != KindDerived {
		t.Error("wrong kind")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRaw: "raw", KindAverage: "average", KindElapsed: "elapsed",
		KindHistogram: "histogram", KindDerived: "derived", Kind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
}

func TestRegistryRegisterGetValue(t *testing.T) {
	r := NewRegistry()
	c := NewRaw(MustParse("/parcels/count/sent"))
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	c.Add(7)
	got, ok := r.Get("/parcels/count/sent")
	if !ok || got.Value() != 7 {
		t.Errorf("Get = %v, %v", got, ok)
	}
	v, err := r.Value("/parcels/count/sent")
	if err != nil || v != 7 {
		t.Errorf("Value = %v, %v", v, err)
	}
	if _, err := r.Value("/missing/x"); err == nil {
		t.Error("missing counter should error")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry()
	p := MustParse("/a/b")
	if err := r.Register(NewRaw(p)); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewRaw(p)); err == nil {
		t.Error("duplicate registration should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegister duplicate should panic")
		}
	}()
	r.MustRegister(NewRaw(p))
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	p := MustParse("/a/b")
	r.MustRegister(NewRaw(p))
	if !r.Unregister(p) {
		t.Error("Unregister should report present")
	}
	if r.Unregister(p) {
		t.Error("second Unregister should report absent")
	}
	if _, ok := r.Get("/a/b"); ok {
		t.Error("counter still visible after unregister")
	}
}

func TestRegistryQueryWildcard(t *testing.T) {
	r := NewRegistry()
	for _, s := range []string{
		"/coalescing{locality#0}/count/parcels@a1",
		"/coalescing{locality#0}/count/parcels@a2",
		"/coalescing{locality#1}/count/parcels@a1",
		"/coalescing{locality#0}/count/messages@a1",
	} {
		r.MustRegister(NewRaw(MustParse(s)))
	}
	got, err := r.Query("/coalescing{*}/count/parcels@*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("wildcard query returned %d counters", len(got))
	}
	// Sorted by path.
	if got[0].Path().String() > got[1].Path().String() {
		t.Error("query results not sorted")
	}
	one, err := r.Query("/coalescing{locality#1}/count/parcels@*")
	if err != nil || len(one) != 1 {
		t.Errorf("instance-pinned query = %v, %v", len(one), err)
	}
	if _, err := r.Query("bogus"); err == nil {
		t.Error("bad query should error")
	}
}

func TestRegistryDiscoverSnapshotReset(t *testing.T) {
	r := NewRegistry()
	a := NewRaw(MustParse("/x/a"))
	b := NewRaw(MustParse("/x/b"))
	r.MustRegister(a)
	r.MustRegister(b)
	a.Add(1)
	b.Add(2)
	names := r.Discover()
	if len(names) != 2 || names[0] != "/x/a" || names[1] != "/x/b" {
		t.Errorf("Discover = %v", names)
	}
	va, erra := r.Value("/x/a")
	vb, errb := r.Value("/x/b")
	if va != 1 || vb != 2 || erra != nil || errb != nil {
		t.Errorf("values = %v, %v (%v, %v)", va, vb, erra, errb)
	}
	r.ResetAll()
	if a.Get() != 0 || b.Get() != 0 {
		t.Error("ResetAll failed")
	}
}

func TestRegistryAttachChild(t *testing.T) {
	parent := NewRegistry()
	child := NewRegistry()
	c := NewRaw(MustParse("/threads{locality#1}/count/executed"))
	child.MustRegister(c)
	parent.Attach(child)
	c.Add(9)
	if v, err := parent.Value("/threads{locality#1}/count/executed"); err != nil || v != 9 {
		t.Errorf("parent lookup through child = %v, %v", v, err)
	}
	got, err := parent.Query("/threads{*}/count/executed@*")
	if err != nil || len(got) != 1 {
		t.Errorf("query through child = %d, %v", len(got), err)
	}
	if len(parent.Discover()) != 1 {
		t.Error("discover through child failed")
	}
	parent.ResetAll()
	if c.Get() != 0 {
		t.Error("ResetAll did not reach child")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := NewRaw(MustParse("/x/hot"))
	r.MustRegister(c)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				if _, err := r.Query("/x{*}/hot@*"); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Get() != 4000 {
		t.Errorf("final value = %v", c.Get())
	}
}
