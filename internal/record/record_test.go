package record

import (
	"testing"
	"testing/quick"
)

func TestFillRoundTrip(t *testing.T) {
	rec := New(42)
	if err := Validate(rec); err != nil {
		t.Fatal(err)
	}
	if Key(rec) != 42 {
		t.Errorf("Key = %d, want 42", Key(rec))
	}
	SetKey(rec, 7)
	if Key(rec) != 7 {
		t.Errorf("Key after SetKey = %d, want 7", Key(rec))
	}
	SetAttr(rec, 3, 999)
	if Attr(rec, 3) != 999 {
		t.Errorf("Attr(3) = %d, want 999", Attr(rec, 3))
	}
}

func TestFillDerivedAttrs(t *testing.T) {
	rec := New(123456)
	for i := 1; i < NumAttrs; i++ {
		var want uint64
		if i%2 == 0 {
			want = 123456 / uint64(i+1)
		} else {
			want = 123456 % uint64(i*1000+1)
		}
		if got := Attr(rec, i); got != want {
			t.Errorf("Attr(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(make([]byte, Size)); err != nil {
		t.Errorf("Validate(80B) = %v", err)
	}
	if err := Validate(make([]byte, Size-1)); err == nil {
		t.Error("Validate(79B) passed")
	}
}

func TestLessTotalOrder(t *testing.T) {
	a, b := New(1), New(2)
	if !Less(a, b) || Less(b, a) {
		t.Error("Less not ordering by key")
	}
	c := New(1)
	SetAttr(c, 5, Attr(c, 5)+1)
	if Less(a, c) == Less(c, a) {
		t.Error("Less not total on equal keys")
	}
}

func TestPermutationIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 3, 7, 64, 100, 1000, 4097} {
		p := NewPermutation(n, 42)
		seen := make(map[uint64]bool, n)
		for i := uint64(0); i < n; i++ {
			v := p.Apply(i)
			if v >= n {
				t.Fatalf("n=%d: Apply(%d) = %d out of range", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestPermutationSeedsDiffer(t *testing.T) {
	const n = 1000
	p1, p2 := NewPermutation(n, 1), NewPermutation(n, 2)
	same := 0
	for i := uint64(0); i < n; i++ {
		if p1.Apply(i) == p2.Apply(i) {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("seeds 1 and 2 agree on %d/%d positions", same, n)
	}
}

func TestPermutationDisperses(t *testing.T) {
	// The permutation should not be close to the identity: count fixed
	// points and adjacent mappings.
	const n = 10000
	p := NewPermutation(n, 7)
	fixed := 0
	for i := uint64(0); i < n; i++ {
		if p.Apply(i) == i {
			fixed++
		}
	}
	if fixed > n/100 {
		t.Errorf("%d fixed points in %d (permutation too close to identity)", fixed, n)
	}
}

// Property: for arbitrary domain sizes the permutation stays in range and
// two distinct inputs never collide.
func TestQuickPermutationInjective(t *testing.T) {
	f := func(nRaw uint16, seed uint64, a, b uint16) bool {
		n := uint64(nRaw)%5000 + 2
		p := NewPermutation(n, seed)
		x, y := uint64(a)%n, uint64(b)%n
		px, py := p.Apply(x), p.Apply(y)
		if px >= n || py >= n {
			return false
		}
		return (x == y) == (px == py)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateUniqueKeys(t *testing.T) {
	const n = 5000
	seen := make(map[uint64]bool, n)
	err := Generate(n, 3, func(rec []byte) error {
		k := Key(rec)
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("generated %d unique keys, want %d", len(seen), n)
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	if err := Generate(0, 1, func([]byte) error { t.Fatal("emit on empty"); return nil }); err != nil {
		t.Errorf("Generate(0) = %v", err)
	}
	if err := Generate(-1, 1, func([]byte) error { return nil }); err == nil {
		t.Error("Generate(-1) succeeded")
	}
}

func TestGenerateJoinFanOut(t *testing.T) {
	const nL, nR = 100, 1000
	counts := make(map[uint64]int)
	leftKeys := make(map[uint64]bool)
	err := GenerateJoin(nL, nR, 9,
		func(rec []byte) error { leftKeys[Key(rec)] = true; return nil },
		func(rec []byte) error { counts[Key(rec)]++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(leftKeys) != nL {
		t.Fatalf("left has %d unique keys, want %d", len(leftKeys), nL)
	}
	for k, c := range counts {
		if !leftKeys[k] {
			t.Fatalf("right key %d missing from left", k)
		}
		if c != nR/nL {
			t.Fatalf("key %d occurs %d times on the right, want %d", k, c, nR/nL)
		}
	}
}

func TestVecBasics(t *testing.T) {
	v := NewVec(Size, 4)
	for _, k := range []uint64{5, 3, 9, 1} {
		v.Append(New(k))
	}
	if v.Len() != 4 || v.Bytes() != 4*Size {
		t.Fatalf("Len=%d Bytes=%d", v.Len(), v.Bytes())
	}
	if Key(v.At(2)) != 9 {
		t.Errorf("At(2) key = %d, want 9", Key(v.At(2)))
	}
	v.Reset()
	if v.Len() != 0 {
		t.Errorf("Len after Reset = %d", v.Len())
	}
}

func TestVecSet(t *testing.T) {
	v := NewVec(Size, 2)
	v.Append(New(1))
	v.Set(0, New(77))
	if Key(v.At(0)) != 77 {
		t.Errorf("Set did not overwrite: key = %d", Key(v.At(0)))
	}
}

// TestVecAppendJoined: a two-part append stores a‖b as one record and,
// once the vector has room, allocates nothing.
func TestVecAppendJoined(t *testing.T) {
	a, b := New(3), New(4)
	v := NewVec(2*Size, 1)
	v.AppendJoined(a, b)
	if v.Len() != 1 || string(v.At(0)) != string(a)+string(b) {
		t.Fatalf("AppendJoined stored %d records, first %x", v.Len(), v.At(0))
	}
	allocs := testing.AllocsPerRun(10, func() {
		v.Reset()
		v.AppendJoined(a, b)
	})
	if allocs != 0 {
		t.Errorf("AppendJoined into a vector with room: %.0f allocations, want 0", allocs)
	}
}
