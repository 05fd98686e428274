package arcs

import (
	"fmt"
	"testing"
)

func TestPackUnpack(t *testing.T) {
	cases := []struct{ u, v, wantU, wantV int32 }{
		{0, 1, 0, 1},
		{1, 0, 0, 1},
		{5, 5, 5, 5},
		{1 << 30, 3, 3, 1 << 30},
		{2147483646, 2147483647, 2147483646, 2147483647},
	}
	for _, c := range cases {
		u, v := Unpack(Pack(c.u, c.v))
		if u != c.wantU || v != c.wantV {
			t.Errorf("Pack(%d,%d) round-trips to (%d,%d), want (%d,%d)", c.u, c.v, u, v, c.wantU, c.wantV)
		}
	}
}

func TestPackOrdersAsMinMax(t *testing.T) {
	// Packed arcs must sort lexicographically as (min, max) pairs.
	if Pack(0, 5) >= Pack(1, 2) {
		t.Error("arcs of smaller min endpoint must sort first")
	}
	if Pack(3, 4) >= Pack(3, 7) {
		t.Error("equal min endpoint must tie-break on max endpoint")
	}
}

func TestBufferAddSkipsSelfLoops(t *testing.T) {
	var b Buffer
	b.Add(2, 2)
	b.Add(3, 1)
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (self-loop skipped)", b.Len())
	}
	if u, v := Unpack(b.Keys()[0]); u != 1 || v != 3 {
		t.Errorf("stored arc (%d,%d), want canonical (1,3)", u, v)
	}
}

func TestBufferAddDirectedKeepsOrientation(t *testing.T) {
	var b Buffer
	b.AddDirected(3, 1)
	b.AddDirected(2, 2)
	b.AddDirected(1, 3)
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (self-loop skipped)", b.Len())
	}
	if got := b.Keys(); got[0] != 3<<32|1 || got[1] != 1<<32|3 {
		t.Errorf("directed keys %#x, want 3→1 then 1→3", got)
	}
}

func TestBufferGrowAndReset(t *testing.T) {
	var b Buffer
	b.Grow(100)
	if cap(b.keys) < 100 {
		t.Fatalf("cap = %d after Grow(100)", cap(b.keys))
	}
	b.Add(0, 1)
	before := cap(b.keys)
	b.Reset()
	if b.Len() != 0 || cap(b.keys) != before {
		t.Errorf("Reset must empty the buffer but keep capacity: len=%d cap=%d", b.Len(), cap(b.keys))
	}
}

func TestPoolRecyclesCleanBuffers(t *testing.T) {
	b := Get()
	b.Add(1, 2)
	b.Release()
	// Whatever Get returns next (pooled or fresh) must be empty.
	for i := 0; i < 4; i++ {
		c := Get()
		if c.Len() != 0 {
			t.Fatalf("pooled buffer not cleared: len=%d", c.Len())
		}
		c.Release()
	}
}

func TestConcat(t *testing.T) {
	a, b := Get(), Get()
	defer a.Release()
	defer b.Release()
	a.Add(0, 1)
	a.Add(2, 3)
	b.Add(4, 5)
	keys := Concat(a, nil, b, nil)
	if len(keys) != 3 {
		t.Fatalf("Concat len = %d, want 3", len(keys))
	}
	want := []uint64{Pack(0, 1), Pack(2, 3), Pack(4, 5)}
	for i, k := range keys {
		if k != want[i] {
			t.Errorf("Concat[%d] = %#x, want %#x", i, k, want[i])
		}
	}
	// The result must be fresh storage, not an alias of a part.
	keys[0] = Pack(9, 10)
	if a.Keys()[0] != Pack(0, 1) {
		t.Error("Concat result aliases a source buffer")
	}
}

// Validate checks that every arc is canonical (u < v) with both endpoints in
// [0, n). It returns an error for the first violation; it is the oracle
// FuzzPackUnpack checks canonical arcs against.
//
// Both endpoints get explicit range checks: endpoints come out of uint64
// halves, so values ≥ 2³¹ unpack as negative int32s, and a low endpoint in
// range says nothing about the high one (or vice versa).
func Validate(keys []uint64, n int) error {
	for i, k := range keys {
		u, v := Unpack(k)
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return fmt.Errorf("arcs: key %d = (%d,%d) endpoint out of range [0,%d)", i, u, v, n)
		}
		if u >= v {
			return fmt.Errorf("arcs: key %d = (%d,%d) not canonical (want u < v)", i, u, v)
		}
	}
	return nil
}

func TestValidate(t *testing.T) {
	const n = 3
	cases := []struct {
		name string
		key  uint64
		ok   bool
	}{
		{"min canonical", Pack(0, 1), true},
		{"max in-range", Pack(n-2, n-1), true},
		{"non-canonical order", uint64(2)<<32 | 1, false},
		{"self-loop", uint64(1)<<32 | 1, false},
		{"self-loop at zero", 0, false},
		{"v == n", Pack(0, n), false},
		{"u == n (both high)", uint64(n)<<32 | uint64(n+1), false},
		{"u in range, v wild", uint64(1)<<32 | 0x7fffffff, false},
		{"u ≥ 2³¹ unpacks negative", uint64(0x80000000)<<32 | 0x80000001, false},
		{"v ≥ 2³¹ unpacks negative", uint64(1)<<32 | 0xffffffff, false},
	}
	for _, c := range cases {
		err := Validate([]uint64{c.key}, n)
		if c.ok && err != nil {
			t.Errorf("%s: valid key rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid key %#x accepted", c.name, c.key)
		}
	}
	if err := Validate(nil, 0); err != nil {
		t.Errorf("empty key set rejected: %v", err)
	}
	// Error reports the first offending index.
	err := Validate([]uint64{Pack(0, 1), Pack(0, n)}, n)
	if err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}
